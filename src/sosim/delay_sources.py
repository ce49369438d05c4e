"""Per-packet inter-packet delay generators.

Two streams: `GammaSource` draws (moment-matched: shape = (mu/sigma)^2,
scale = sigma^2/mu), and `TraceSource` replays.  A trace path replays its
file and a deterministic path replays one sample, its mean.  Trace files
are line-oriented `seq,delay_ms` with an optional single header row;
replay wraps around at the end so experiments of any length can run on
finite traces.

`take(count)` (an array) and `next_delay()` (one float, the engine's per-packet
read) advance the same stream and interleave freely.  Gamma samples are drawn
in blocks; numpy's gamma stream does not depend on the chunking, so neither
the block size nor the mix of reads changes a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, read_text, require_count, require_finite

# Fields each kind never reads; a spec must leave them at their defaults.
_UNREAD = {
    "deterministic": ("stddev_ms", "trace_path", "seed"),
    "gamma": ("trace_path",),
    "trace": ("mean_ms", "stddev_ms", "seed"),
}
KINDS = tuple(_UNREAD)
_REFILL = 256


@dataclass(frozen=True)
class DelaySourceSpec:
    """Declarative description of one path's delay process."""

    kind: str
    mean_ms: float = 0.0
    stddev_ms: float = 0.0
    trace_path: str | Path | None = None
    propagation_ms: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown delay source kind {self.kind!r}")
        require_finite("mean_ms", self.mean_ms)
        require_finite("stddev_ms", self.stddev_ms)
        require_finite("propagation_ms", self.propagation_ms)
        if self.kind == "gamma" and (self.mean_ms <= 0 or self.stddev_ms <= 0):
            raise ConfigError("gamma sources need mean_ms > 0 and stddev_ms > 0")
        if self.kind == "trace" and self.trace_path is None:
            raise ConfigError("trace sources need a trace_path")
        unread = [
            f.name
            for f in fields(self)
            if f.name in _UNREAD[self.kind] and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ConfigError(f"{self.kind} sources do not read {', '.join(unread)}")
        if self.seed is not None:
            require_count("seed", self.seed, 0)  # numpy PCG64 seed


class GammaSource:
    """Gamma samples with the requested mean and standard deviation."""

    def __init__(self, spec: DelaySourceSpec):
        if spec.seed is None:
            raise ConfigError("synthetic sources need a seed")
        self.spec = spec
        self.shape = (spec.mean_ms / spec.stddev_ms) ** 2
        self.scale = spec.stddev_ms**2 / spec.mean_ms
        self._rng = np.random.Generator(np.random.PCG64(spec.seed))
        self._buf = np.empty(0)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        avail = len(self._buf) - self._pos
        if count <= avail:
            out = self._buf[self._pos : self._pos + count]
            self._pos += count
            return out.copy()
        head = self._buf[self._pos :]
        fresh = self._rng.gamma(self.shape, self.scale, size=max(count - avail, _REFILL))
        self._buf = fresh
        self._pos = count - avail
        return np.concatenate([head, fresh[: self._pos]])

    def next_delay(self) -> float:
        pos = self._pos
        if pos < len(self._buf):
            self._pos = pos + 1
            return self._buf.item(pos)
        return float(self.take(1)[0])


class TraceSource:
    """Replays a path's samples in order, wrapping around at the end."""

    def __init__(self, spec: DelaySourceSpec):
        self.spec = spec
        self._samples = _replayed(spec)
        self._idx = 0

    def take(self, count: int) -> np.ndarray:
        n = len(self._samples)
        idx = (self._idx + np.arange(count)) % n
        self._idx = (self._idx + count) % n
        return self._samples[idx]

    def next_delay(self) -> float:
        idx = self._idx
        self._idx = (idx + 1) % len(self._samples)
        return self._samples.item(idx)


def _parse_trace(path: Path) -> list[float]:
    samples: list[float] = []
    for line_no, raw in enumerate(read_text(path, "trace").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line_no == 1 and line.replace(" ", "") == "seq,delay_ms":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected two columns 'seq,delay_ms'")
        try:
            int(parts[0])
            delay = float(parts[1])
        except ValueError as exc:
            raise ParseError(path, line_no, f"unparseable value: {exc}") from exc
        if not math.isfinite(delay):
            raise ParseError(path, line_no, f"non-finite delay {parts[1].strip()!r}")
        if delay < 0:
            raise ParseError(path, line_no, f"negative delay {delay}")
        samples.append(delay)
    if not samples:
        raise ConfigError(f"trace file {path} contains no samples")
    return samples


def _replayed(spec: DelaySourceSpec) -> np.ndarray:
    """The samples a deterministic (its mean, once) or trace path replays."""
    if spec.kind == "deterministic":
        return np.array([spec.mean_ms], dtype=float)
    return np.array(_parse_trace(Path(spec.trace_path)), dtype=float)


def make_source(spec: DelaySourceSpec) -> GammaSource | TraceSource:
    return GammaSource(spec) if spec.kind == "gamma" else TraceSource(spec)


def oracle_stats(spec: DelaySourceSpec) -> tuple[float, float]:
    """Population (mean, stddev) of a path's delay process.

    These are what the windowed estimator converges to after warm-up.  A
    replayed path's statistics are taken over all its samples; a trace file
    is read again on every call.
    """
    if spec.kind == "gamma":
        return spec.mean_ms, spec.stddev_ms
    samples = _replayed(spec)
    return float(samples.mean()), float(samples.std())
