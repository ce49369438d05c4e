"""Deterministic discrete-event engine for multipath object transmission.

Each path is a serial server: packets queue per path, consume one
inter-packet delay sample per service in dispatch order, and are delivered
one propagation delay after service ends.  The sender observes a delivery
after a configurable ACK return time; inter-packet gaps measured between
back-to-back services feed the rolling estimation windows in estimated mode,
and ACKs release the arrivals that wait on an object's parse progress.

Events are processed in nondecreasing time with a fixed lexicographic
tie-break (time, kind, path, insertion order), so identical configurations
and seeds reproduce identical outcomes exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

from . import fec as fec_mod
from .baselines import edf_assign, sedpf_assign
from .delay_sources import oracle_stats
from .errors import ConfigError, DomainError, InfeasibleError, NoDataError, require_count
from .estimation import DEFAULT_WINDOW, RollingWindow, snapshot_params
from .scheduler_core import PathParams, Plan, split_object, variance_w
from .workloads import ObjectSpec

# Event kinds, in tie-break order at equal timestamps.
KIND_ARRIVAL = 0      # object_arrival
KIND_SERVER_FREE = 1  # internal: a path finished serving one packet
KIND_DELIVERED = 2    # packet_delivered (receiver side)
KIND_ACK = 3          # ack_observed (sender side)

SCHEDULERS = ("sos", "sos_fec", "edf", "sedpf")
MODES = ("oracle", "estimated")


@dataclass(frozen=True)
class SimConfig:
    """Run-wide knobs shared by the engine and the harness."""

    epsilon: float = 0.05
    gamma: float = fec_mod.DEFAULT_GAMMA
    ack_return_ms: float = 0.0
    mode: str = "oracle"  # one of MODES
    warmup_packets: int = 0
    window_capacity: int = DEFAULT_WINDOW
    # Per-path (mean, stddev) for cold starts.  The older (mean, a, b, stddev)
    # form is still read, its middle entries ignored, until every caller
    # passes pairs.
    priors: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.gamma <= 1.0:  # NaN fails both comparisons
            raise DomainError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown parameter mode {self.mode!r}")
        if not 0.0 <= self.ack_return_ms < math.inf:  # NaN fails both comparisons
            raise ConfigError(
                f"ack_return_ms must be finite and nonnegative, got {self.ack_return_ms}"
            )
        require_count("warmup_packets", self.warmup_packets, 0)
        require_count("window_capacity", self.window_capacity, 1)
        if self.priors is not None:
            object.__setattr__(self, "priors", tuple(_prior(p) for p in self.priors))


def _prior(entry) -> tuple[float, float]:
    """(mean, stddev) of one prior, given as a 2-tuple or a 4-tuple."""
    if not isinstance(entry, (tuple, list)) or len(entry) not in (2, 4):
        raise ConfigError(f"prior {entry!r} is not a (mean, stddev) pair")
    mean, stddev = entry[0], entry[-1]
    if not (0.0 <= mean < math.inf and 0.0 <= stddev < math.inf):
        raise ConfigError(
            f"prior mean {mean} and stddev {stddev} must be finite and nonnegative"
        )
    return mean, stddev


@dataclass(frozen=True)
class TransferRecord:
    """Per-object outcome: first-dispatch and completion times, the packets
    each path carried (pulled ones excluded) and how many were redundancy."""

    object_id: str
    start_ms: float
    completion_ms: float
    sent_per_path: tuple[int, ...]
    redundancy: int


# ---------------------------------------------------------------------------
# Scheduling policies


class SosPolicy:
    coded = False

    def plan(self, n: int, params, stddevs) -> Plan:
        return Plan(split_object(n, params), n)


class SosFecPolicy:
    coded = True

    def __init__(self, gamma: float = fec_mod.DEFAULT_GAMMA):
        self.gamma = gamma

    def plan(self, n: int, params, stddevs) -> Plan:
        return fec_mod.solve_fec_split(n, params, self.gamma)


class EdfPolicy:
    coded = False
    assign = staticmethod(edf_assign)

    def plan(self, n: int, params, stddevs) -> Plan:
        return Plan(self.assign(params, stddevs, n), n)


class SedpfPolicy:
    coded = False
    assign = staticmethod(sedpf_assign)

    def plan(self, n: int, params, stddevs) -> Plan:
        order = self.assign(params, stddevs, n)
        return Plan(tuple(order.count(j) for j in range(len(params))), n, order=order)


def make_policy(name: str, config: SimConfig | None = None):
    gamma = config.gamma if config is not None else fec_mod.DEFAULT_GAMMA
    if name == "sos":
        return SosPolicy()
    if name == "sos_fec":
        return SosFecPolicy(gamma)
    if name == "edf":
        return EdfPolicy()
    if name == "sedpf":
        return SedpfPolicy()
    raise ConfigError(f"unknown scheduler {name!r}")


def dispatch_order(counts, params) -> tuple[int, ...]:
    """Interleave per-path allocations by expected arrival time.

    Keeps sequence-adjacent packets close in expected delivery so the in-order
    receive buffer stays small; ties go to the lower path index.
    """
    heap = []
    for j, c in enumerate(counts):
        if c > 0:
            p = params[j]
            heap.append(((p.in_flight + 1) * p.mu_ms + p.prop_ms, j, 1))
    heapq.heapify(heap)
    order = []
    while heap:
        _, j, k = heapq.heappop(heap)
        order.append(j)
        if k < counts[j]:
            p = params[j]
            heapq.heappush(heap, ((p.in_flight + k + 1) * p.mu_ms + p.prop_ms, j, k + 1))
    return tuple(order)


# ---------------------------------------------------------------------------
# Parameter feed


class ParamFeed:
    """Supplies per-path scheduling parameters, true or window-estimated.

    Oracle mode uses `priors` when given, else the sources' true statistics,
    and keeps no windows.  Estimated mode owns one rolling window per path;
    a path whose window is empty falls back to `priors` only, and without
    them the snapshot raises NoDataError: estimated mode never reads the
    true statistics.
    """

    def __init__(self, specs, config: SimConfig):
        self.specs = list(specs)
        self.config = config
        self.windows = (
            [RollingWindow(config.window_capacity) for _ in self.specs]
            if config.mode == "estimated"
            else None
        )
        m = len(self.specs)
        self.epsilon_j = config.epsilon / m
        known = config.priors
        if known is not None and len(known) != m:
            raise ConfigError("need one prior tuple per path")
        if known is None and config.mode == "oracle":
            known = [oracle_stats(s) for s in self.specs]
        # (mean, variance weight, stddev) per path, from priors or the truth
        self._known = None if known is None else [
            (mu, variance_w(self.epsilon_j, sigma), sigma) for mu, sigma in known
        ]

    def warmup(self, sources) -> None:
        """Prime the windows with `warmup_packets` of continuous stream per path."""
        count = self.config.warmup_packets
        if self.windows is None or count <= 0:
            return
        for win, src in zip(self.windows, sources):
            draws = src.take(count)
            win.extend(draws[1:])  # first packet of a busy run has no gap reference

    def snapshot(self, in_flight) -> tuple[list[PathParams], list[float]]:
        params = []
        stddevs = []
        for j, spec in enumerate(self.specs):
            window = self.windows[j] if self.windows is not None else None
            u = int(in_flight[j])
            if window is not None and len(window):
                params.append(
                    snapshot_params(window, self.epsilon_j, spec.propagation_ms, u)
                )
                stddevs.append(window.stddev())
            elif self._known is None:
                raise NoDataError(
                    f"estimated mode: path {j} has no window samples and no priors"
                )
            else:
                mu, w, sigma = self._known[j]
                params.append(PathParams(mu, w, spec.propagation_ms, u))
                stddevs.append(sigma)
        return params, stddevs


# ---------------------------------------------------------------------------
# Engine


class LiveObject:
    """Runtime state of one object: its packet counts through dispatch,
    service and delivery, and the in-order prefix behind `parse_progress`."""

    def __init__(self, spec: ObjectSpec, n_paths: int, coded: bool):
        self.spec = spec
        self.needed = spec.size_packets
        self.coded = coded
        self.delivered = 0
        self.released = 0  # in-order prefix released to the application
        self.unserved = 0  # dispatched, service not yet started
        self.sent_per_path = [0] * n_paths
        self.start_ms: float | None = None
        self.completion_ms: float | None = None
        self._arrived: list[bool] = [False] * (0 if coded else spec.size_packets)
        self._seq_counter = 0
        self.pulled_seqs: list[int] = []  # identities awaiting re-dispatch
        # (packet index, payload) pairs by index, only ever popped: an ACK
        # that finds parse_progress at or past an index releases its payload.
        self.watchers: deque | None = None

    @property
    def parse_progress(self) -> int:
        """Packets usable by the application so far (drives dependency triggers)."""
        return self.delivered if self.coded else self.released

    def next_seqs(self, count: int) -> list[int]:
        """Packet identities for `count` sends: pulled ones first, then fresh."""
        seqs = self.pulled_seqs[:count]
        del self.pulled_seqs[:count]
        start = self._seq_counter
        self._seq_counter += count - len(seqs)
        seqs.extend(range(start, self._seq_counter))
        return seqs

    def on_delivery(self, seq: int) -> None:
        self.delivered += 1
        if not self.coded:
            self._arrived[seq] = True
            while self.released < len(self._arrived) and self._arrived[self.released]:
                self.released += 1

    def record(self) -> TransferRecord:
        if self.completion_ms is None or self.start_ms is None:
            raise InfeasibleError(f"object {self.spec.id!r} never completed")
        return TransferRecord(
            object_id=self.spec.id,
            start_ms=self.start_ms,
            completion_ms=self.completion_ms,
            sent_per_path=tuple(self.sent_per_path),
            redundancy=sum(self.sent_per_path) - self.needed,
        )


class _Lane:
    """Serial server for one path: a queue of packets served one gap apart."""

    def __init__(self, source):
        self.source = source
        self.prop_ms = source.spec.propagation_ms
        self.queue: deque[tuple[LiveObject, int]] = deque()
        self.serving = False
        self.u = 0  # dispatched, undelivered


class Simulation:
    """Event core: lanes, the event heap, delivery/ACK bookkeeping.

    A delivery schedules its ACK only if the ACK records a gap or its object
    has watchers; `run()` still ends with the clock at the last ACK time.
    """

    def __init__(self, sources, config: SimConfig = SimConfig()):
        self.lanes = [_Lane(src) for src in sources]
        if not self.lanes:
            raise ConfigError("need at least one path")
        self.config = config
        # The lanes' parameter feed; its windows (estimated mode only) take
        # the ACK gaps, after the warm-up stream.
        self.feed = ParamFeed([lane.source.spec for lane in self.lanes], config)
        self.feed.warmup([lane.source for lane in self.lanes])
        self.clock = 0.0
        self._last_ack_ms = 0.0  # ACK time of the latest delivery
        self._heap: list = []
        self._counter = itertools.count()
        # Driver hooks, called from `step` only, never from inside `dispatch`.
        self.on_arrival = None  # fn(payload, now)
        self.on_fully_sent = None  # fn(now): service began on an object's last queued packet

    @property
    def in_flight(self) -> tuple[int, ...]:
        return tuple(lane.u for lane in self.lanes)

    def schedule(self, time_ms: float, kind: int, path: int = -1, payload=None) -> None:
        heapq.heappush(self._heap, (time_ms, kind, path, next(self._counter), payload))

    def dispatch(self, obj: LiveObject, plan: Plan, params, now: float) -> None:
        """Enqueue one planned segment of an object across the lanes."""
        if obj.start_ms is None:
            obj.start_ms = now
        order = plan.order if plan.order is not None else dispatch_order(plan.counts, params)
        for seq, j in zip(obj.next_seqs(len(order)), order):
            self.lanes[j].queue.append((obj, seq))
        obj.unserved += len(order)
        # Events order by path before insertion, so kick order moves none.
        for j, count in enumerate(plan.counts):
            if count:
                self.lanes[j].u += count
                obj.sent_per_path[j] += count
                self._kick(j, now, continuation=False)

    def pull_unserved(self, obj: LiveObject) -> int:
        """Remove an object's queued (unserved) packets from all lanes."""
        pulled_total = 0
        for j, lane in enumerate(self.lanes):
            kept = deque(item for item in lane.queue if item[0] is not obj)
            pulled = len(lane.queue) - len(kept)
            if pulled:
                obj.pulled_seqs.extend(seq for o, seq in lane.queue if o is obj)
                lane.queue = kept
                lane.u -= pulled
                obj.unserved -= pulled
                obj.sent_per_path[j] -= pulled
                pulled_total += pulled
        obj.pulled_seqs.sort()
        return pulled_total

    def _kick(self, j: int, now: float, continuation: bool) -> LiveObject | None:
        """Start serving lane j's next packet, if idle; returns its object."""
        lane = self.lanes[j]
        if lane.serving or not lane.queue:
            return None
        obj, seq = lane.queue.popleft()
        gap = lane.source.next_delay()
        end = now + gap
        lane.serving = True
        # A gap is a valid inter-ACK sample only between back-to-back services.
        recorded = gap if continuation and self.feed.windows is not None else None
        self.schedule(end, KIND_SERVER_FREE, j)
        self.schedule(end + lane.prop_ms, KIND_DELIVERED, j, (obj, seq, recorded))
        obj.unserved -= 1
        return obj

    def step(self) -> bool:
        """Process one event; returns False once the heap is empty."""
        if not self._heap:
            return False
        time_ms, kind, path, _, payload = heapq.heappop(self._heap)
        self.clock = time_ms
        if kind == KIND_ARRIVAL:
            if self.on_arrival is not None:
                self.on_arrival(payload, time_ms)
        elif kind == KIND_SERVER_FREE:
            self.lanes[path].serving = False
            obj = self._kick(path, time_ms, continuation=True)
            if obj is not None and obj.unserved == 0 and self.on_fully_sent is not None:
                self.on_fully_sent(time_ms)
        elif kind == KIND_DELIVERED:
            obj, seq, recorded = payload
            self.lanes[path].u -= 1
            obj.on_delivery(seq)
            if obj.delivered == obj.needed and obj.completion_ms is None:
                obj.completion_ms = time_ms
            ack_ms = self._last_ack_ms = time_ms + self.config.ack_return_ms
            if recorded is not None or obj.watchers:
                self.schedule(ack_ms, KIND_ACK, path, (obj, recorded))
        elif kind == KIND_ACK:
            obj, recorded = payload
            if recorded is not None:
                self.feed.windows[path].record(recorded)
            watchers = obj.watchers
            while watchers and watchers[0][0] <= obj.parse_progress:
                self.schedule(time_ms, KIND_ARRIVAL, payload=watchers.popleft()[1])
        return True

    def run(self) -> None:
        while self.step():
            pass
        self.clock = max(self.clock, self._last_ack_ms)


def run_transfer(sizes, scheduler: str, sources, config: SimConfig = SimConfig()):
    """Transmit objects one at a time; each starts once the previous settled.

    `sizes` are packet counts; `scheduler` is one of {"sos", "sos_fec",
    "edf", "sedpf"}.  Returns one TransferRecord per object.
    """
    policy = make_policy(scheduler, config)
    sim = Simulation(sources, config)
    records = []
    for i, size in enumerate(sizes):
        live = LiveObject(ObjectSpec(f"obj{i}", size), len(sim.lanes), policy.coded)
        params, stddevs = sim.feed.snapshot(sim.in_flight)
        plan = policy.plan(live.needed, params, stddevs)
        sim.dispatch(live, plan, params, sim.clock)
        sim.run()
        records.append(live.record())
    return records
