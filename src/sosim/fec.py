"""Redundancy scheduling: send n + delta coded packets, decode from any n.

For each path i the split is re-solved with that path's variability weight
discounted by gamma (modeling a lucky low-delay realization there); path i's
total send count is taken from its own re-solve.  Every solve, at any path
count, is the one exact selection of the n smallest bound increments, and the
discount lowers only path i's, so path i's count cannot fall: every delta_i is
nonnegative, and gamma = 1 reproduces the plain split.  Coding itself is
abstracted to counting semantics: receipt of any n of the n + delta packets
completes the object.
"""

from __future__ import annotations

from .errors import ValidationError
from .scheduler_core import PathParams, Plan, solve_integer

DEFAULT_GAMMA = 0.5


def solve_fec_split(n: int, paths, gamma: float = DEFAULT_GAMMA) -> Plan:
    """Per-path send counts with gamma-discounted redundancy.

    The plan's threshold is n, the decode threshold, and its `base_counts`
    is the plain split the totals grow from.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    paths = list(paths)
    base = solve_integer(n, paths)
    totals = []
    for i, p in enumerate(paths):
        discounted = list(paths)
        discounted[i] = PathParams(p.mu_ms, gamma * p.w, p.prop_ms, p.in_flight)
        totals.append(solve_integer(n, discounted)[i])
    return Plan(tuple(totals), n, base_counts=base)
