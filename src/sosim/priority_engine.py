"""Multi-object orchestration over the simulator.

Objects become pending when their trigger fires, dispatch in priority order
(FIFO order under the comparison policy), and their splits account for the
live in-flight backlog on every path.  A newly triggered object preempts
lower-priority objects transmitting on other connections: their queued,
unserved packets are pulled back and re-planned as a residual object; packets
already in service continue and still count toward completion.
"""

from __future__ import annotations

from .errors import ConfigError, ValidationError
from .simulator import (
    KIND_ARRIVAL,
    LiveObject,
    ParamFeed,
    SimConfig,
    Simulation,
    make_policy,
)
from .workloads import (
    ObjectQueue,
    ObjectSpec,
    PageResult,
    expand_chunked,
    maybe_preempt,
    validate_specs,
)


class PriorityEngine:
    """Drives a set of triggered objects through the simulator."""

    def __init__(
        self,
        specs,
        sources,
        config: SimConfig = SimConfig(),
        scheduler="sos",
        ordering: str = "priority",
    ):
        if ordering not in ("priority", "fifo"):
            raise ConfigError(f"unknown ordering {ordering!r}")
        self.specs = expand_chunked(validate_specs(specs))
        self.ordering = ordering
        self.policy = (
            make_policy(scheduler, config) if isinstance(scheduler, str) else scheduler
        )
        self.sim = Simulation(sources, config)
        self.feed = ParamFeed(
            [lane.source.spec for lane in self.sim.lanes], config, self.sim.windows
        )
        if config.mode == "estimated":
            self.feed.warmup([lane.source for lane in self.sim.lanes], config.warmup_packets)

        self.queue = ObjectQueue(by_priority=(ordering == "priority"))
        self.lives: dict[str, LiveObject] = {
            spec.id: LiveObject(spec, len(self.sim.lanes), self.policy.coded)
            for spec in self.specs
        }
        self._dispatched: dict[str, int] = {}  # id -> arrival seq, once dispatched
        # Dependency watch: target id -> sorted [(packet_index, dependent spec)],
        # plus a pointer so each dependent fires exactly once.
        self._watch: dict[str, list[tuple[int, ObjectSpec]]] = {}
        self._watch_ptr: dict[str, int] = {}
        for spec in self.specs:
            trig = spec.trigger
            if trig.kind == "t0":
                self.sim.schedule(0.0, KIND_ARRIVAL, payload=spec)
            elif trig.kind == "at":
                self.sim.schedule(trig.at_ms, KIND_ARRIVAL, payload=spec)
            else:
                if trig.dep_id not in self.lives:
                    raise ValidationError(f"unknown dependency target {trig.dep_id!r}")
                self._watch.setdefault(trig.dep_id, []).append((trig.dep_packet, spec))
        for watchers in self._watch.values():
            watchers.sort(key=lambda kv: kv[0])

        self._in_drain = False
        self.sim.on_arrival = self._handle_arrival
        self.sim.on_ack = self._handle_ack
        self.sim.on_fully_sent = lambda obj, now: self._drain(now)

    # -- event handlers -----------------------------------------------------

    def _handle_arrival(self, spec: ObjectSpec, now: float) -> None:
        self.queue.arm(spec)
        self._drain(now)

    def _handle_ack(self, obj: LiveObject, seq: int, now: float) -> None:
        watchers = self._watch.get(obj.spec.id)
        if not watchers:
            return
        ptr = self._watch_ptr.get(obj.spec.id, 0)
        progress = obj.parse_progress
        while ptr < len(watchers) and watchers[ptr][0] <= progress:
            self.sim.schedule(now, KIND_ARRIVAL, payload=watchers[ptr][1])
            ptr += 1
        self._watch_ptr[obj.spec.id] = ptr

    # -- dispatch loop ------------------------------------------------------

    def _connection_floor(self) -> dict[str, int]:
        """Earliest not-fully-sent dispatched request per connection.

        Responses on one connection are handed to the transport in request
        order, so a later request may dispatch only once every earlier one on
        its connection has all packets at least in service.
        """
        floor: dict[str, int] = {}
        for obj_id, seq in self._dispatched.items():
            live = self.lives[obj_id]
            if live.unserved == 0 or self.queue.is_armed(obj_id):
                continue
            conn = live.spec.connection_id
            if conn not in floor or seq < floor[conn]:
                floor[conn] = seq
        return floor

    def _drain(self, now: float) -> None:
        # Dispatching can unblock further objects (fully-sent notifications
        # arrive reentrantly); the scan-dispatch loop absorbs them, so nested
        # calls simply return.
        if self._in_drain:
            return
        self._in_drain = True
        try:
            while True:
                cand = self.queue.next_ready_object(self._connection_floor())
                if cand is None:
                    return
                if self.ordering == "priority":
                    self._preempt_for(cand)
                seq = self.queue.arrival_seq(cand.id)
                self.queue.take(cand.id)
                self._dispatched[cand.id] = seq
                self._dispatch(self.lives[cand.id], now)
        finally:
            self._in_drain = False

    def _preempt_for(self, candidate: ObjectSpec) -> None:
        for obj_id in self._dispatched:
            live = self.lives[obj_id]
            if live.settled or self.queue.is_armed(obj_id):
                continue
            if not maybe_preempt(live.spec, candidate):
                continue
            if self.sim.pull_unserved(live) > 0:
                # Residual re-enters the queue at its original request position.
                self.queue.arm(live.spec, arrival_seq=self._dispatched[obj_id])

    def _dispatch(self, live: LiveObject, now: float) -> None:
        residual = live.needed - live.delivered - live.outstanding
        if residual <= 0:
            return  # already satisfied by packets in flight
        params, stddevs = self.feed.snapshot(self.sim.in_flight)
        plan = self.policy.plan(residual, params, stddevs)
        self.sim.dispatch(live, plan, params, now)

    # -- driving ------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the run is finished."""
        return self.sim.step()

    def run(self) -> list:
        while self.step():
            pass
        return self.records()

    def records(self) -> list:
        return [self.lives[spec.id].record() for spec in self.specs]


def run_page(
    specs,
    sources,
    config: SimConfig = SimConfig(),
    scheduler="sos",
    ordering: str = "priority",
) -> tuple[list, PageResult]:
    """Transmit one page; returns per-object records and the page summary:
    DOM completion (the user-visible event) and full page completion."""
    engine = PriorityEngine(specs, sources, config, scheduler, ordering)
    records = engine.run()  # one per expanded spec, in spec order
    dom_times = [r.completion_ms for r, s in zip(records, engine.specs) if s.is_dom]
    return records, PageResult(
        dom_complete_ms=max(dom_times, default=0.0),
        page_complete_ms=max((r.completion_ms for r in records), default=0.0),
    )
