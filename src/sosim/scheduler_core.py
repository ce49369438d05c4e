"""Split optimization for multipath object transmission.

An object of n packets is divided across m paths.  Path j is summarized by
:class:`PathParams`: mean inter-packet delay mu, the variability weight w,
a fixed propagation delay, and the in-flight backlog u.  Sending x new
packets on a path that already carries u is, with high probability,
finished within

    t_upper(x) = (x + u) * mu + sqrt(x + u) * w

and the object-level bound is d_upper = max_j (t_upper_j + prop_j).
The weight w comes from a Chernoff bound so that the per-path overshoot
probability is at most epsilon_j (epsilon split evenly over paths).  Paths fed
from measurements (oracle statistics or an estimation window) use
:func:`variance_w`, whose variance proxy is the measured sigma^2; the bound
then holds when the delays are sub-Gaussian with that proxy.  :func:`compute_w`
is Hoeffding's form for delays that truly lie in [a, b].

The solvers minimize d_upper over integer splits: a water-level bisection for
the fractional relaxation (all used paths end up with equal t_upper + prop,
the Wardrop condition), an exact O(m log m) ceil/floor rounding of it that
returns the best corner without enumerating the corners, and a direct
O(log n) bisection on the packet count for the two-path case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInputError, DomainError, ValidationError

#: Relative width at which the water-level bisection stops.
LEVEL_TOLERANCE = 1e-12
#: Relative mismatch between allocated mass and n accepted by the relaxed solver.
MASS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PathParams:
    """Per-path delay statistics consumed by every scheduling decision."""

    mu_ms: float
    w: float
    prop_ms: float = 0.0
    in_flight: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so `0 <= x < inf` refuses it too.
        inf = math.inf
        if not (0.0 <= self.mu_ms < inf and 0.0 <= self.w < inf and 0.0 <= self.prop_ms < inf):
            raise ValidationError(
                f"path parameters mu_ms={self.mu_ms}, w={self.w}, prop_ms={self.prop_ms} "
                "must be finite and nonnegative"
            )
        if self.in_flight < 0:
            raise ValidationError("in-flight count must be nonnegative")


@dataclass
class SolveStats:
    """Optional instrumentation: number of bound evaluations a solve performed."""

    d_upper_evals: int = 0


def compute_w(epsilon_j: float, a_ms: float, b_ms: float) -> float:
    """Hoeffding variability weight sqrt(-ln(eps_j) * (b - a)^2 / 2).

    Valid for delays that almost surely lie in [a, b].  Zero when the delay
    range collapses (a == b) or eps_j == 1.
    """
    if not 0.0 < epsilon_j <= 1.0:
        raise DomainError(f"per-path epsilon must lie in (0, 1], got {epsilon_j}")
    if a_ms > b_ms:
        raise ValidationError(f"lower bound {a_ms} exceeds upper bound {b_ms}")
    return math.sqrt(-math.log(epsilon_j) * (b_ms - a_ms) ** 2 / 2.0)


def variance_w(epsilon_j: float, sigma_ms: float) -> float:
    """Sub-Gaussian variability weight sigma * sqrt(2 * ln(1 / eps_j)).

    The Chernoff weight of :func:`compute_w` with the measured variance
    sigma^2 as the variance proxy instead of Hoeffding's worst case
    (b - a)^2 / 4.  Zero when sigma == 0 or eps_j == 1.
    """
    if not 0.0 < epsilon_j <= 1.0:
        raise DomainError(f"per-path epsilon must lie in (0, 1], got {epsilon_j}")
    if sigma_ms < 0:
        raise ValidationError(f"negative delay stddev {sigma_ms}")
    return sigma_ms * math.sqrt(-2.0 * math.log(epsilon_j))


def t_upper(n_j: int, u_j: int, params: PathParams) -> float:
    """High-probability transmission time of n_j new packets behind u_j in flight.

    Propagation delay is not included here; d_upper adds it once per path.
    """
    if n_j < 0 or u_j < 0:
        raise ValidationError("packet counts must be nonnegative")
    k = n_j + u_j
    return k * params.mu_ms + math.sqrt(k) * params.w


def d_upper(counts, paths) -> float:
    """Object-level delay bound: max over paths of t_upper + propagation.

    `counts` holds one new-packet count per path, each path's recorded
    in-flight count is its backlog offset, and a negative count is refused.
    A path with zero allocation still contributes its propagation (and
    backlog) term.
    """
    paths = list(paths)
    if len(counts) != len(paths):
        raise ValidationError(f"split has {len(counts)} entries for {len(paths)} paths")
    return max(t_upper(c, p.in_flight, p) + p.prop_ms for c, p in zip(counts, paths))


def _check_paths(paths) -> list[PathParams]:
    paths = list(paths)
    if not paths:
        raise ValidationError("need at least one path")
    degenerate = [j for j, p in enumerate(paths) if p.mu_ms == 0.0 and p.w == 0.0]
    if degenerate:
        raise DegenerateInputError(
            f"paths {degenerate} have zero mean delay and zero variability"
        )
    return paths


def _bound_at(x: float, p: PathParams) -> float:
    # continuous version of t_upper + prop at fractional allocation x
    k = x + p.in_flight
    return k * p.mu_ms + math.sqrt(k) * p.w + p.prop_ms


def _invert_bound(level: float, p: PathParams) -> float:
    """Largest continuous x >= 0 with _bound_at(x) <= level."""
    budget = level - p.prop_ms
    if budget <= 0:
        return 0.0
    # solve mu*s^2 + w*s = budget for s = sqrt(x + u)
    if p.mu_ms == 0.0:
        s = budget / p.w
    else:
        s = (-p.w + math.sqrt(p.w * p.w + 4.0 * p.mu_ms * budget)) / (2.0 * p.mu_ms)
    return max(0.0, s * s - p.in_flight)


def solve_relaxed(n: int, paths) -> list[float]:
    """Fractional split minimizing the object delay bound.

    Bisects on the equalized delay level: at level L every path receives the
    largest allocation whose bound stays below L (zero if its propagation plus
    backlog alone exceeds L), and the level is tuned until allocations sum to
    n.  All paths with positive allocation share the same bound, so no packet
    reassignment can lower the max.
    """
    paths = _check_paths(paths)
    if n < 0:
        raise ValidationError("object size must be nonnegative")
    if n == 0:
        return [0.0] * len(paths)

    # At level lo nothing fits anywhere; at level hi the cheapest path alone
    # already absorbs all n packets, so the target level lies in between.
    lo = min(_bound_at(0.0, p) for p in paths)
    hi = min(_bound_at(float(n), p) for p in paths)

    while hi - lo > LEVEL_TOLERANCE * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        total = sum(_invert_bound(mid, p) for p in paths)
        if abs(total - n) <= MASS_TOLERANCE * n:
            lo = hi = mid
            break
        if total < n:
            lo = mid
        else:
            hi = mid

    level = 0.5 * (lo + hi)
    xs = [_invert_bound(level, p) for p in paths]
    mass = sum(xs)
    if mass > 0.0:
        scale = n / mass
        xs = [x * scale for x in xs]
    return xs


def _solve_two(n: int, paths, stats: SolveStats | None) -> tuple[int, int]:
    """Exact integer optimum for two paths by bisection on the first count.

    The first path's bound rises with k and the second's falls, so their max
    is unimodal in k; binary search finds the rightmost minimizer (ties give
    the first path more packets), using at most two bound evaluations per
    halving step.
    """
    (u0, mu0, w0, prop0), (u1, mu1, w1, prop1) = [
        (p.in_flight, p.mu_ms, p.w, p.prop_ms) for p in paths
    ]
    cache: dict[int, float] = {}

    def bound(k: int) -> float:
        v = cache.get(k)
        if v is None:
            # max(t_upper + prop) of both paths, in t_upper's float operations
            k0, k1 = k + u0, n - k + u1
            v = k0 * mu0 + math.sqrt(k0) * w0 + prop0
            v1 = k1 * mu1 + math.sqrt(k1) * w1 + prop1
            if v1 > v:
                v = v1
            cache[k] = v
            if stats is not None:
                stats.d_upper_evals += 1
        return v

    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < bound(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo, n - lo


def solve_integer(n: int, paths, stats: SolveStats | None = None) -> tuple[int, ...]:
    """Per-path packet counts (summing to n) minimizing the object delay bound.

    Two paths use the O(log n) bisection; more paths solve the relaxation and
    round it to the best ceil/floor corner exactly in O(m log m).  Ties prefer
    giving more packets to the lowest-index path.
    """
    paths = _check_paths(paths)
    if n < 0:
        raise ValidationError("object size must be nonnegative")
    m = len(paths)
    if n == 0:
        return (0,) * m
    if m == 1:
        return (n,)
    if m == 2:
        return _solve_two(n, paths, stats)

    # Exact rounding of the relaxation.  lo[j] is path j's bound at its floor;
    # hi[j] is its bound at floor + 1, for paths with a fractional part.  Any
    # choice of `rem` such paths to bump has bound at least
    # level = max(max(lo), rem-th smallest hi), because hi >= lo.  Bumping the
    # lowest-index paths with hi <= level reaches that level, and among the
    # corners that do, it is the lexicographically largest: the tie-break.
    xs = solve_relaxed(n, paths)
    floors = [math.floor(x) for x in xs]
    rem = n - sum(floors)
    lo = [t_upper(c, p.in_flight, p) + p.prop_ms for c, p in zip(floors, paths)]
    hi = {
        j: t_upper(floors[j] + 1, p.in_flight, p) + p.prop_ms
        for j, p in enumerate(paths)
        if math.ceil(xs[j]) > floors[j]
    }
    if stats is not None:
        stats.d_upper_evals += 2
    level = max(lo + sorted(hi.values())[:rem])
    counts = list(floors)
    for j in [j for j, h in hi.items() if h <= level][:rem]:
        counts[j] += 1
    return tuple(counts)


def split_object(n: int, paths, stats: SolveStats | None = None) -> tuple[int, ...]:
    """Split one object across paths, accounting for in-flight backlogs.

    Identical to :func:`solve_integer` (the bound already adds each path's
    in-flight count); the returned counts are new packets only.
    """
    return solve_integer(n, paths, stats=stats)
