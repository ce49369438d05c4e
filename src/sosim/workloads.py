"""Object streams: fixed-size objects and HTTP-page workloads.

Page spec files are line-oriented CSV: `id,size_packets,dom,connection_id,
chunked,trigger` where `dom` is 0 (plain) or a positive priority, `chunked`
is 0/1, and `trigger` is `t0`, `t:<ms>` (a finite, nonnegative time from the
page start) or `dep:<object_id>:<packet_index>`.
`#` starts a comment.  Chunked objects expand into per-packet unit objects
sharing connection and priority (each packet is independently useful, so a
delayed packet cannot stall requests generated by earlier ones).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError, require_count

MAX_RANDOM_SIZE = 12  # largest object random_page draws, in packets


@dataclass(frozen=True)
class Trigger:
    """When an object becomes requestable: at time zero, at a wall-clock time,
    or once a given packet of an earlier object has been delivered."""

    kind: str  # "t0" | "at" | "dep"
    at_ms: float = 0.0
    dep_id: str = ""
    dep_packet: int = 0

    def __post_init__(self):
        # A page starts at time zero; NaN fails both comparisons.
        if not 0.0 <= self.at_ms < math.inf:
            raise ValidationError(f"trigger time {self.at_ms} must be finite and nonnegative")

    @classmethod
    def t0(cls) -> "Trigger":
        return cls("t0")

    @classmethod
    def at(cls, ms: float) -> "Trigger":
        return cls("at", at_ms=float(ms))

    @classmethod
    def dep(cls, object_id: str, packet_index: int) -> "Trigger":
        require_count(f"packet index of the dependency on {object_id!r}", packet_index, 0,
                      ValidationError)
        return cls("dep", dep_id=object_id, dep_packet=int(packet_index))

    @classmethod
    def parse(cls, text: str) -> "Trigger":
        text = text.strip()
        if text == "t0":
            return cls.t0()
        if text.startswith("t:"):
            return cls.at(float(text[2:]))
        if text.startswith("dep:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad dependency trigger {text!r}")
            return cls.dep(parts[1], int(parts[2]))
        raise ValueError(f"unknown trigger {text!r}")


@dataclass(frozen=True)
class ObjectSpec:
    """One application-layer object."""

    id: str
    size_packets: int
    priority: int = 0
    connection_id: str = "c0"
    chunked: bool = False
    trigger: Trigger = Trigger("t0")

    def __post_init__(self):
        try:
            operator.index(self.size_packets)  # ints, numpy ints; not 2.5
        except TypeError:
            raise ValidationError(
                f"object {self.id!r} needs an integer size_packets, got {self.size_packets!r}"
            ) from None
        if self.size_packets < 1:
            raise ValidationError(f"object {self.id!r} needs size_packets >= 1")
        if self.priority < 0:
            raise ValidationError(f"object {self.id!r} has negative priority")

    @property
    def is_dom(self) -> bool:
        return self.priority > 0


@dataclass(frozen=True)
class PageResult:
    """Page-level latency summary."""

    dom_complete_ms: float
    page_complete_ms: float

    def __post_init__(self):
        if self.dom_complete_ms > self.page_complete_ms:
            raise ValidationError("DOM completion cannot exceed page completion")


def validate_specs(specs) -> list[ObjectSpec]:
    """Check id uniqueness and that dependencies point backwards and in bounds."""
    specs = list(specs)
    seen: dict[str, ObjectSpec] = {}
    for spec in specs:
        if spec.id in seen:
            raise ValidationError(f"duplicate object id {spec.id!r}")
        trig = spec.trigger
        if trig.kind == "dep":
            target = seen.get(trig.dep_id)
            if target is None:
                raise ValidationError(
                    f"object {spec.id!r} depends on {trig.dep_id!r}, which is not "
                    "defined earlier (dangling or forward reference)"
                )
            if not 1 <= trig.dep_packet <= target.size_packets:
                raise ValidationError(
                    f"object {spec.id!r} references packet {trig.dep_packet} of "
                    f"{trig.dep_id!r} (size {target.size_packets})"
                )
        seen[spec.id] = spec
    return specs


def expand_chunked(specs) -> list[ObjectSpec]:
    """Replace each chunked object with per-packet unit objects.

    Dependencies into a chunked object are remapped onto the matching unit.
    Units inherit the parent trigger; request order within the connection
    preserves their byte order.  A unit id `id#k` that another object already
    uses is refused.
    """
    unit_of: dict[str, str] = {}  # (parent id) -> unit id prefix
    out: list[ObjectSpec] = []
    for spec in specs:
        trig = spec.trigger
        if trig.kind == "dep" and trig.dep_id in unit_of:
            trig = Trigger.dep(f"{trig.dep_id}#{trig.dep_packet}", 1)
        if spec.chunked and spec.size_packets > 1:
            unit_of[spec.id] = spec.id
            for k in range(1, spec.size_packets + 1):
                out.append(
                    replace(spec, id=f"{spec.id}#{k}", size_packets=1, chunked=False, trigger=trig)
                )
        elif spec.chunked:
            out.append(replace(spec, chunked=False, trigger=trig))
        else:
            # frozen specs are shared; only a remapped trigger needs a copy
            out.append(spec if trig is spec.trigger else replace(spec, trigger=trig))
    seen: set[str] = set()
    for spec in out:
        if spec.id in seen:
            raise ValidationError(f"duplicate object id {spec.id!r} after chunk expansion")
        seen.add(spec.id)
    return out


def load_page_spec(path) -> list[ObjectSpec]:
    """Parse, validate and expand a page spec file."""
    path = Path(path)
    specs: list[ObjectSpec] = []
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read page spec {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise ParseError(path, line_no, "expected 6 columns "
                             "'id,size_packets,dom,connection_id,chunked,trigger'")
        try:
            spec = ObjectSpec(
                id=parts[0],
                size_packets=int(parts[1]),
                priority=int(parts[2]),
                connection_id=parts[3],
                chunked=bool(int(parts[4])),
                trigger=Trigger.parse(parts[5]),
            )
        except (ValueError, ValidationError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        specs.append(spec)
    return expand_chunked(validate_specs(specs))


def maybe_preempt(current, candidate) -> bool:
    """Preempt only for strictly higher priority arriving on another connection
    (same-connection preemption would violate HTTP response ordering)."""
    return (
        candidate.priority > current.priority
        and candidate.connection_id != current.connection_id
    )


class ObjectQueue:
    """Pending objects whose triggers have fired, ordered for dispatch.

    Keeps each connection's armed `ObjectSpec`s in arrival order; priority
    and connection are read from the spec.  Arrival order is the arm() call
    order (trigger-satisfaction order) unless the caller passes the seq of an
    earlier request.  Only the head of a connection is dispatchable,
    mirroring in-order request handling on an HTTP connection.
    """

    def __init__(self, by_priority: bool = True):
        self.by_priority = by_priority
        self._armed: dict[str, list[tuple[int, ObjectSpec]]] = {}  # conn -> [(seq, spec)]
        self._counter = 0

    def arm(self, spec: ObjectSpec, arrival_seq: int | None = None) -> None:
        if arrival_seq is None:
            arrival_seq = self._counter
            self._counter += 1
        armed = self._armed.setdefault(spec.connection_id, [])
        bisect.insort(armed, (arrival_seq, spec), key=lambda entry: entry[0])

    def next_ready_object(self, busy) -> ObjectSpec | None:
        """Highest-priority head of a connection not in `busy`, or None.

        Ties break by arrival order then id.
        """
        best = None
        best_key = None
        for conn, armed in self._armed.items():
            if not armed or conn in busy:
                continue
            seq, spec = armed[0]
            key = (-spec.priority if self.by_priority else 0, seq, spec.id)
            if best_key is None or key < best_key:
                best, best_key = spec, key
        return best

    def take(self, spec: ObjectSpec) -> int:
        """Pop `spec`, the head of its connection; returns its arrival seq."""
        return self._armed[spec.connection_id].pop(0)[0]


def random_page(
    rng: np.random.Generator,
    n_objects: int,
    n_connections: int,
    dom_fraction: float,
) -> list[ObjectSpec]:
    """Randomized page graph shaped like real page loads.

    The root object is chunked markup requested at time zero.  Render-critical
    (DOM) resources are discovered from the early part of the markup and are
    fetched over the primary connections; plain resources are discovered from
    later packets (or from DOM parents) and use the remaining connections, so
    a connection never queues a plain object ahead of a render-critical one.
    """
    if n_objects < 1:
        raise ValidationError("a page needs at least one object")
    n_dom = max(1, round(dom_fraction * n_objects))
    dom_ids = {0}
    if n_objects > 1 and n_dom > 1:
        extra = rng.choice(
            np.arange(1, n_objects), size=min(n_dom - 1, n_objects - 1), replace=False
        )
        dom_ids |= {int(x) for x in extra}
    dom_conns = max(1, n_connections // 3) if n_connections > 1 else 1

    specs: list[ObjectSpec] = []
    root_size = int(rng.integers(2, MAX_RANDOM_SIZE + 1))
    head = max(1, root_size // 3)  # packets that discover render-critical content
    specs.append(
        ObjectSpec(
            id="obj0",
            size_packets=root_size,
            priority=1,
            connection_id="conn0",
            chunked=True,
            trigger=Trigger.t0(),
        )
    )
    for i in range(1, n_objects):
        size = int(rng.integers(1, MAX_RANDOM_SIZE + 1))
        parents = [s for s in specs if s.is_dom]
        parent = parents[int(rng.integers(0, len(parents)))]
        if i in dom_ids:
            packet = int(rng.integers(1, min(head, parent.size_packets) + 1))
            conn = f"conn{int(rng.integers(0, dom_conns))}"
            priority = 1
        else:
            lo = min(head, parent.size_packets - 1) + 1 if parent.size_packets > head else 1
            packet = int(rng.integers(lo, parent.size_packets + 1))
            conn_pool = max(n_connections - dom_conns, 1)
            conn = f"conn{dom_conns + int(rng.integers(0, conn_pool))}" \
                if n_connections > dom_conns else "conn0"
            priority = 0
        specs.append(
            ObjectSpec(
                id=f"obj{i}",
                size_packets=size,
                priority=priority,
                connection_id=conn,
                chunked=False,
                trigger=Trigger.dep(parent.id, packet),
            )
        )
    return specs
