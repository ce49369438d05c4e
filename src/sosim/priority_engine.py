"""Multi-object orchestration over the simulator.

The engine checks and expands its page once (`expand_chunked`).  Objects
become pending when their trigger fires, dispatch in the queue's order
(priority, or request order for the FIFO comparison), and their splits
account for the live in-flight backlog on every path.  Under priority order
a newly triggered object preempts lower-priority objects transmitting on
other connections: their queued, unserved packets are pulled back and
re-planned as a residual object; packets already in service continue and
still count toward completion.

A connection hands its responses to the transport in request order, so each
connection keeps one slot: the last object dispatched on it.  Only that
object can have packets waiting for service, and while it has, the
connection is busy and its next request waits.
"""

from __future__ import annotations

from collections import deque

from .errors import ConfigError
from .simulator import KIND_ARRIVAL, LiveObject, SimConfig, Simulation, make_policy
from .workloads import ObjectQueue, ObjectSpec, PageResult, expand_chunked

ORDERINGS = ("priority", "fifo")


class PriorityEngine:
    """Drives a set of triggered objects through the simulator."""

    def __init__(
        self,
        specs,
        sources,
        config: SimConfig = SimConfig(),
        scheduler: str = "sos",
        ordering: str = "priority",
    ):
        if ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {ordering!r}")
        self.specs = expand_chunked(specs)
        self.policy = make_policy(scheduler, config)
        self.sim = Simulation(sources, config)
        self.queue = ObjectQueue(by_priority=(ordering == "priority"))
        self.lives: dict[str, LiveObject] = {
            spec.id: LiveObject(spec, len(self.sim.lanes), self.policy.coded)
            for spec in self.specs
        }
        # connection id -> (arrival seq, object) of the last dispatch on it
        self._slots: dict[str, tuple[int, LiveObject]] = {}
        # Dependency watch: each target's (packet_index, dependent spec) pairs
        # by packet index; the simulator releases them on the target's ACKs.
        watch: dict[str, list[tuple[int, ObjectSpec]]] = {}
        for spec in self.specs:
            trig = spec.trigger
            if trig.kind != "dep":
                self.sim.schedule(trig.at_ms, KIND_ARRIVAL, payload=spec)
            else:
                watch.setdefault(trig.dep_id, []).append((trig.dep_packet, spec))
        for target, watchers in watch.items():
            self.lives[target].watchers = deque(sorted(watchers, key=lambda kv: kv[0]))

        self.sim.on_arrival = self._handle_arrival
        self.sim.on_fully_sent = self._drain

    # -- event handlers -----------------------------------------------------

    def _handle_arrival(self, spec: ObjectSpec, now: float) -> None:
        self.queue.arm(spec)
        self._drain(now)

    # -- dispatch loop ------------------------------------------------------

    def _busy(self, conn: str) -> bool:
        """Whether conn's last dispatched object still has packets queued."""
        slot = self._slots.get(conn)
        return slot is not None and slot[1].unserved > 0

    def _drain(self, now: float) -> None:
        # A dispatch can start an object's last queued packet and so free its
        # connection; the simulator does not report that from inside
        # dispatch, and the loop's next scan sees the connection free.
        while (cand := self.queue.next_ready_object(self._busy)) is not None:
            if self.queue.by_priority:
                self._preempt_for(cand)
            live = self.lives[cand.id]
            self._slots[cand.connection_id] = (self.queue.take(cand), live)
            self._dispatch(live, now)

    def _preempt_for(self, candidate: ObjectSpec) -> None:
        for seq, live in self._slots.values():
            if (
                live.unserved > 0
                and candidate.priority > live.spec.priority
                and candidate.connection_id != live.spec.connection_id
            ):
                self.sim.pull_unserved(live)
                # Residual re-enters the queue at its original request position.
                self.queue.arm(live.spec, arrival_seq=seq)

    def _dispatch(self, live: LiveObject, now: float) -> None:
        residual = live.needed - sum(live.sent_per_path)
        if residual <= 0:
            return  # already satisfied by packets in flight
        self.sim.dispatch(live, *self.sim.decide(self.policy, residual), now)

    # -- driving ------------------------------------------------------------

    def run(self) -> list:
        """Process every event; returns one record per expanded spec, in order."""
        self.sim.run()
        return [self.lives[spec.id].record() for spec in self.specs]


def run_page(
    specs,
    sources,
    config: SimConfig = SimConfig(),
    scheduler: str = "sos",
    ordering: str = "priority",
) -> tuple[list, PageResult]:
    """Transmit one page; returns per-object records and the page summary:
    DOM completion (the user-visible event) and full page completion."""
    engine = PriorityEngine(specs, sources, config, scheduler, ordering)
    records = engine.run()
    dom_times = [r.completion_ms for r, s in zip(records, engine.specs) if s.is_dom]
    return records, PageResult(
        dom_complete_ms=max(dom_times, default=0.0),
        page_complete_ms=max((r.completion_ms for r in records), default=0.0),
    )
