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

The solvers choose integer splits by d_upper.  Path j's bound with x new
packets, b_j(x) = t_upper_j(x) + prop_j, does not decrease in x, so the
integer optimum takes the n smallest items b_j(x), x >= 1 (any split's bound
is at least its largest item and every b_j(0)).  Two paths find them by a
bisection on the first count; more paths start from the floors of the
fractional relaxation's water level (the Wardrop split) at a coarse width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt

from .errors import DegenerateInputError, DomainError, ValidationError

#: Relative width at which the water-level bisection stops.
LEVEL_TOLERANCE = 1e-12
#: Relative width of the level whose floors start the integer selection; the
#: selection is exact from any start, so this sets only the work it does.
SELECTION_TOLERANCE = 1e-3
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


@dataclass(frozen=True)
class Plan:
    """One dispatch decision: per-path send counts plus decode threshold."""

    counts: tuple[int, ...]
    threshold: int
    base_counts: tuple[int, ...] | None = None  # redundancy-free split (FEC only)
    order: tuple[int, ...] | None = None  # per-packet path sequence (SEDPF)

    @property
    def redundancy(self) -> int:
        return sum(self.counts) - self.threshold


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


def _check_paths(n: int, paths) -> list[PathParams]:
    paths = list(paths)
    if not paths:
        raise ValidationError("need at least one path")
    degenerate = [j for j, p in enumerate(paths) if p.mu_ms == 0.0 and p.w == 0.0]
    if degenerate:
        raise DegenerateInputError(
            f"paths {degenerate} have zero mean delay and zero variability"
        )
    if n < 0:
        raise ValidationError("object size must be nonnegative")
    return paths


def _level_shares(n: int, paths: list[PathParams], tolerance: float) -> list[float]:
    """Per-path continuous shares at the water level, bisected until the
    shares sum to n or the level's relative width falls to `tolerance`."""
    # A path's allocation at level L solves mu*s^2 + w*s = L - prop for
    # s = sqrt(x + u); these are the per-path terms of that root.
    terms = [(p.prop_ms, p.w, p.in_flight, p.w * p.w, 4.0 * p.mu_ms, 2.0 * p.mu_ms) for p in paths]

    def shares(level: float) -> list[float]:
        """Per path, the largest continuous x >= 0 with t_upper(x) + prop <= level."""
        xs = []
        for prop, w, u, w2, mu4, mu2 in terms:
            budget = level - prop
            if budget <= 0:
                xs.append(0.0)
                continue
            if mu2 == 0.0:
                s = budget / w
            else:
                s = (-w + sqrt(w2 + mu4 * budget)) / mu2
            x = s * s - u
            xs.append(x if x > 0.0 else 0.0)  # same as max(0.0, x), -0.0 and NaN too
        return xs

    # At level lo nothing fits anywhere; at level hi the cheapest path alone
    # already absorbs all n packets, so the target level lies in between.
    lo = min(t_upper(0, p.in_flight, p) + p.prop_ms for p in paths)
    hi = min(t_upper(n, p.in_flight, p) + p.prop_ms for p in paths)

    while hi - lo > tolerance * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        total = sum(shares(mid))
        if abs(total - n) <= MASS_TOLERANCE * n:
            lo = hi = mid
            break
        if total < n:
            lo = mid
        else:
            hi = mid
    return shares(0.5 * (lo + hi))


def solve_relaxed(n: int, paths) -> list[float]:
    """Fractional split minimizing the object delay bound.

    Bisects on the equalized delay level: at level L every path receives the
    largest allocation whose bound stays below L (zero if its propagation plus
    backlog alone exceeds L), and the level is tuned until allocations sum to
    n.  All paths with positive allocation share the same bound, so no packet
    reassignment can lower the max.
    """
    paths = _check_paths(n, paths)
    if n == 0:
        return [0.0] * len(paths)
    xs = _level_shares(n, paths, LEVEL_TOLERANCE)
    mass = sum(xs)
    return [x * (n / mass) for x in xs] if mass > 0.0 else xs


def take_cheapest(
    n: int, terms, counts: list[int], stats: SolveStats | None = None
) -> tuple[int, ...]:
    """Per-path counts of the n smallest items b_j(x), x >= 1, in (b, j, x) order.

    `terms[j] = (u, mu, w, prop)` gives b_j(x) = k*mu + sqrt(k)*w + prop with
    k = x + u, as t_upper computes it.  From any start `counts`, one item at a
    time moves in or out until the n chosen are below every unchosen one.
    """
    def item(j: int, x: int) -> float:
        u, mu, w, prop = terms[j]
        k = x + u
        return k * mu + sqrt(k) * w + prop

    m = len(counts)
    last = [item(j, c) if c else -math.inf for j, c in enumerate(counts)]
    nxt = [item(j, c + 1) for j, c in enumerate(counts)]
    evals = sum(map(bool, counts)) + m
    total = sum(counts)
    while True:
        lo = min(range(m), key=nxt.__getitem__)  # ties to the lowest path
        if total < n:
            counts[lo] += 1
            last[lo] = nxt[lo]
            nxt[lo] = item(lo, counts[lo] + 1)
            total += 1
            evals += 1
            continue
        j = max(reversed(range(m)), key=last.__getitem__)  # ties to the highest path
        if total == n and (last[j], j, counts[j]) < (nxt[lo], lo, counts[lo] + 1):
            break
        counts[j] -= 1
        nxt[j] = last[j]
        last[j] = item(j, counts[j]) if counts[j] else -math.inf
        total -= 1
        evals += counts[j] > 0
    if stats is not None:
        stats.d_upper_evals += evals
    return tuple(counts)


def _solve_two(n: int, paths, stats: SolveStats | None) -> tuple[int, int]:
    """:func:`take_cheapest` for two paths, by bisection on the first count k.

    The first path's bound rises with k and the second's falls, so their max
    is unimodal in k; the rightmost minimizer takes the same items, using at
    most two bound evaluations per halving step.
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
    """Per-path packet counts (summing to n) chosen by the object delay bound.

    The split is the n smallest bound increments in (b, j, x) order, an
    integer optimum of the bound; ties give more packets to lower-index paths.
    """
    paths = _check_paths(n, paths)
    m = len(paths)
    if n == 0:
        return (0,) * m
    if m == 1:
        return (n,)
    if m == 2:
        return _solve_two(n, paths, stats)

    counts = [int(min(x, n)) for x in _level_shares(n, paths, SELECTION_TOLERANCE)]
    terms = [(p.in_flight, p.mu_ms, p.w, p.prop_ms) for p in paths]
    return take_cheapest(n, terms, counts, stats)


#: The bound already adds each path's in-flight count, so splitting an object
#: behind a backlog is :func:`solve_integer`; the counts are new packets only.
split_object = solve_integer
