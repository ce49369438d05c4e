"""Object streams: fixed-size objects and HTTP-page workloads.

Page spec files are line-oriented CSV: `id,size_packets,dom,connection_id,
chunked,trigger` where `dom` is 0 (plain) or a positive priority, `chunked`
is 0/1, and `trigger` is `t0` (time zero), `t:<ms>` (a finite, nonnegative time
from the page start) or `dep:<object_id>:<packet_index>`.
`#` starts a comment.  Chunked objects expand into per-packet unit objects
sharing connection and priority (each packet is independently useful, so a
delayed packet cannot stall requests generated by earlier ones).
`expand_chunked` is the one routine that checks a page (unique ids,
dependencies on earlier objects and in-range packets) and expands it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, ParseError, ValidationError, read_text, require_count, require_finite
)

MAX_RANDOM_SIZE = 12  # largest object random_page draws, in packets


@dataclass(frozen=True)
class Trigger:
    """When an object becomes requestable: at a wall-clock time from the page
    start (`Trigger()` is time zero), or once a given packet of an earlier
    object has been delivered."""

    kind: str = "at"  # "at" | "dep"
    at_ms: float = 0.0
    dep_id: str = ""
    dep_packet: int = 0  # 1-based; read only by a "dep" trigger

    def __post_init__(self):
        if self.kind not in ("at", "dep"):
            raise ValidationError(f"unknown trigger kind {self.kind!r}")
        require_finite("trigger time", self.at_ms, ValidationError)  # from the page start
        if self.kind == "dep":
            require_count(f"packet index of the dependency on {self.dep_id!r}", self.dep_packet,
                          1, ValidationError)
            object.__setattr__(self, "dep_packet", int(self.dep_packet))  # a numpy integer as int

    @classmethod
    def at(cls, ms: float) -> "Trigger":
        return cls("at", at_ms=float(ms))

    @classmethod
    def dep(cls, object_id: str, packet_index: int) -> "Trigger":
        return cls("dep", dep_id=object_id, dep_packet=packet_index)

    @classmethod
    def parse(cls, text: str) -> "Trigger":
        text = text.strip()
        if text == "t0":
            return cls()
        try:
            if text.startswith("t:"):
                return cls.at(float(text[2:]))
            if text.startswith("dep:"):
                parts = text.split(":")
                if len(parts) == 3:
                    return cls.dep(parts[1], int(parts[2]))
                raise ValidationError(f"bad dependency trigger {text!r}")
        except ValueError as exc:  # float() or int() of the number
            raise ValidationError(f"bad trigger {text!r}: {exc}") from None
        raise ValidationError(f"unknown trigger {text!r}")


@dataclass(frozen=True)
class ObjectSpec:
    """One application-layer object."""

    id: str
    size_packets: int
    priority: int = 0
    connection_id: str = "c0"
    chunked: bool = False
    trigger: Trigger = Trigger()

    def __post_init__(self):
        if self.id == "":
            raise ValidationError("object id must not be empty")
        if self.connection_id == "":
            raise ValidationError(f"object {self.id!r} connection_id must not be empty")
        require_count(f"object {self.id!r} size_packets", self.size_packets, 1, ValidationError)
        require_count(f"object {self.id!r} priority", self.priority, 0, ValidationError)

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


def expand_chunked(specs) -> list[ObjectSpec]:
    """Check a page and replace each chunked object with per-packet unit objects.

    One pass: every id, given or made (a chunked object's units are `id#k`),
    is unique, and each dependency names an earlier object and a packet
    within it.  Dependencies into a chunked object are remapped onto the
    matching unit.  Units inherit the parent trigger; request order within the
    connection preserves their byte order.  An expanded page expands to itself.
    """
    given: dict[str, ObjectSpec] = {}  # earlier objects by the id they were given
    ids: set[str] = set()  # every id given or made so far
    out: list[ObjectSpec] = []
    for spec in specs:
        units = [f"{spec.id}#{k}" for k in range(1, spec.size_packets + 1)] \
            if spec.chunked and spec.size_packets > 1 else []
        for obj_id in (spec.id, *units):
            if obj_id in ids:
                raise ValidationError(f"duplicate object id {obj_id!r}")
            ids.add(obj_id)
        trig = spec.trigger
        if trig.kind == "dep":
            target = given.get(trig.dep_id)
            if target is None:
                raise ValidationError(
                    f"object {spec.id!r} depends on {trig.dep_id!r}, which is not "
                    "defined earlier (dangling or forward reference)"
                )
            if trig.dep_packet > target.size_packets:
                raise ValidationError(
                    f"object {spec.id!r} references packet {trig.dep_packet} of "
                    f"{trig.dep_id!r} (size {target.size_packets})"
                )
            if target.chunked and target.size_packets > 1:
                trig = Trigger.dep(f"{trig.dep_id}#{trig.dep_packet}", 1)
        if units:
            out.extend(ObjectSpec(unit_id, 1, spec.priority, spec.connection_id, False, trig)
                       for unit_id in units)
        elif spec.chunked or trig is not spec.trigger:
            out.append(ObjectSpec(spec.id, spec.size_packets, spec.priority,
                                  spec.connection_id, False, trig))
        else:
            out.append(spec)  # frozen specs are shared
        given[spec.id] = spec
    return out


def load_page_spec(path) -> list[ObjectSpec]:
    """Parse, check and expand a page spec file."""
    path = Path(path)
    specs: list[ObjectSpec] = []
    for line_no, raw in enumerate(read_text(path, "page spec").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise ParseError(path, line_no, "expected 6 columns "
                             "'id,size_packets,dom,connection_id,chunked,trigger'")
        if parts[4] not in ("0", "1"):
            raise ParseError(path, line_no, f"chunked must be 0 or 1, got {parts[4]!r}")
        try:
            spec = ObjectSpec(
                id=parts[0],
                size_packets=int(parts[1]),
                priority=int(parts[2]),
                connection_id=parts[3],
                chunked=parts[4] == "1",
                trigger=Trigger.parse(parts[5]),
            )
        except (ValueError, ValidationError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        specs.append(spec)
    try:
        return expand_chunked(specs)
    except ValidationError as exc:  # a fault of the page, not of one line
        raise ConfigError(f"{path}: {exc}") from exc


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
        # conn -> [(seq, spec)]; a connection whose list empties is dropped
        self._armed: dict[str, list[tuple[int, ObjectSpec]]] = {}
        self._counter = 0

    def arm(self, spec: ObjectSpec, arrival_seq: int | None = None) -> None:
        if arrival_seq is None:
            arrival_seq = self._counter
            self._counter += 1
        armed = self._armed.setdefault(spec.connection_id, [])
        bisect.insort(armed, (arrival_seq, spec), key=lambda entry: entry[0])

    def next_ready_object(self, busy) -> ObjectSpec | None:
        """Highest-priority head of a connection for which `busy(conn)` is
        false, or None.  Ties break by arrival order then id.
        """
        best = None
        best_key = None
        for conn, armed in self._armed.items():
            if busy(conn):
                continue
            seq, spec = armed[0]
            key = (-spec.priority if self.by_priority else 0, seq, spec.id)
            if best_key is None or key < best_key:
                best, best_key = spec, key
        return best

    def take(self, spec: ObjectSpec) -> int:
        """Pop `spec`, the head of its connection; returns its arrival seq."""
        armed = self._armed[spec.connection_id]
        if len(armed) == 1:
            del self._armed[spec.connection_id]
        return armed.pop(0)[0]


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
    require_count("n_objects", n_objects, 1, ValidationError)
    require_count("n_connections", n_connections, 1, ValidationError)
    try:
        in_range = 0.0 <= dom_fraction <= 1.0  # NaN fails both comparisons
    except TypeError:  # not a number at all
        in_range = False
    if not in_range:
        raise ValidationError(f"dom_fraction must lie in [0, 1], got {dom_fraction!r}")
    n_dom = max(1, round(dom_fraction * n_objects))
    dom_ids = {0}
    if n_objects > 1 and n_dom > 1:
        extra = rng.choice(
            np.arange(1, n_objects), size=min(n_dom - 1, n_objects - 1), replace=False
        )
        dom_ids |= {int(x) for x in extra}
    dom_conns = max(1, n_connections // 3)

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
            conn = f"conn{dom_conns + int(rng.integers(0, n_connections - dom_conns))}" \
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
