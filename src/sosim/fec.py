"""Redundancy scheduling: send n + delta coded packets, decode from any n.

For each path i the split is re-solved with that path's variability weight
discounted by gamma (modeling a lucky low-delay realization there); path i's
total send count is taken from its own re-solve.  gamma < 1 only ever grows a
path's allocation, so every per-path redundancy delta_i is nonnegative, and
gamma = 1 reproduces the plain split exactly.  Coding itself is abstracted to
counting semantics: receipt of any n of the n + delta packets completes the
object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .scheduler_core import PathParams, SolveStats, SplitVector, solve_integer

DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class FecAllocation:
    """Base split plus per-path totals including redundancy."""

    base: SplitVector
    totals: tuple[int, ...]
    redundancy: int

    def __post_init__(self):
        if len(self.totals) != len(self.base.counts):
            raise ValidationError("totals and base split must have equal length")
        if any(t < c for t, c in zip(self.totals, self.base.counts)):
            raise ValidationError("per-path totals may not fall below the base split")
        if self.redundancy != sum(self.totals) - self.base.total:
            raise ValidationError("redundancy must equal sum(totals) - base total")


def solve_fec_split(
    n: int,
    paths,
    gamma: float = DEFAULT_GAMMA,
    stats: SolveStats | None = None,
) -> FecAllocation:
    """Per-path send counts with gamma-discounted redundancy."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    paths = list(paths)
    base = solve_integer(n, paths, stats=stats)
    if gamma == 1.0 or all(p.w == 0.0 for p in paths):
        return FecAllocation(base=base, totals=base.counts, redundancy=0)

    totals = []
    for i, p in enumerate(paths):
        discounted = list(paths)
        discounted[i] = PathParams(p.mu_ms, gamma * p.w, p.prop_ms, p.in_flight)
        eta = solve_integer(n, discounted, stats=stats)
        totals.append(eta.counts[i])
    totals = tuple(totals)
    return FecAllocation(base=base, totals=totals, redundancy=sum(totals) - base.total)
