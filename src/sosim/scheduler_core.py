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
is at least its largest item and every b_j(0)).  One selection finds them
at every m: it starts from the floors of the shares at a water level (the
fractional relaxation's, a Wardrop split) that a few Newton steps approach
from above, and EDF's counts (w = 0) take the same route.  Every path's
share comes from one root of its bound, s = 2*budget/(w + r), which has no
difference to cancel, so a tiny mean still counts; the steps keep the share
total at n - 1/2 or more.  :func:`solve_relaxed` returns the shares at that
level, with the Newton steps run until the level stops falling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import hypot, nextafter, sqrt

from .errors import ValidationError, require_count, require_finite


@dataclass(frozen=True)
class PathParams:
    """Per-path delay statistics consumed by every scheduling decision."""

    mu_ms: float
    w: float
    prop_ms: float = 0.0
    in_flight: int = 0

    def __post_init__(self):
        require_finite("mu_ms", self.mu_ms, ValidationError)
        require_finite("w", self.w, ValidationError)
        require_finite("prop_ms", self.prop_ms, ValidationError)
        require_count("in-flight count", self.in_flight, 0, ValidationError)


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

    Valid for delays that almost surely lie in [a, b], so a bound that is
    negative or not finite is refused.  Zero when the delay range collapses
    (a == b) or eps_j == 1.
    """
    if not 0.0 < epsilon_j <= 1.0:
        raise ValidationError(f"per-path epsilon must lie in (0, 1], got {epsilon_j}")
    require_finite("delay lower bound", a_ms, ValidationError)
    require_finite("delay upper bound", b_ms, ValidationError)
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
        raise ValidationError(f"per-path epsilon must lie in (0, 1], got {epsilon_j}")
    require_finite("delay stddev", sigma_ms, ValidationError)
    return sigma_ms * math.sqrt(-2.0 * math.log(epsilon_j))


def t_upper(n_j: int, u_j: int, params: PathParams) -> float:
    """High-probability transmission time of n_j new packets behind u_j in flight.

    Propagation delay is not included here; d_upper adds it once per path.
    """
    require_count("new-packet count", n_j, 0, ValidationError)
    require_count("in-flight count", u_j, 0, ValidationError)
    k = n_j + u_j
    return k * params.mu_ms + math.sqrt(k) * params.w


def d_upper(counts, paths) -> float:
    """Object-level delay bound: max over paths of t_upper + propagation.

    `counts` holds one new-packet count per path, each path's recorded
    in-flight count is its backlog offset, and a negative count or an empty
    path list is refused.  A path with zero allocation still contributes its
    propagation (and backlog) term.
    """
    paths = list(paths)
    if not paths or len(counts) != len(paths):
        raise ValidationError(f"split has {len(counts)} entries for {len(paths)} paths, "
                              "need one per path and at least one path")
    return max(t_upper(c, p.in_flight, p) + p.prop_ms for c, p in zip(counts, paths))


def _terms(n: int, paths) -> list[tuple]:
    """Check n and the paths, and return the paths' `(u, mu, w, prop)` terms."""
    paths = list(paths)
    if not paths:
        raise ValidationError("need at least one path")
    require_count("object size", n, 0, ValidationError)
    return [(p.in_flight, p.mu_ms, p.w, p.prop_ms) for p in paths]


def _shares(level: float, terms) -> tuple[list[float], float]:
    """Per path, the largest continuous x >= 0 with t_upper(x) + prop <= level,
    and the sum of dx/dlevel over the paths whose x is positive.

    s = sqrt(x + u) solves mu*s^2 + w*s = budget.  Every path takes the root
    s = 2*budget/(w + r), r = sqrt(w^2 + 4*mu*budget), which cancels nothing
    (at mu = 0 it is budget/w bit for bit); `hypot` gives r where the sum
    under the root would underflow or overflow, so r > 0 off flat paths.
    """
    xs = []
    slope = 0.0
    for u, mu, w, prop in terms:
        budget = level - prop
        if budget <= 0:
            xs.append(0.0)
            continue
        if 1e-290 < (q := w * w + 4.0 * mu * budget) < 1e290:
            r = sqrt(q)
        else:
            r = hypot(w, 2.0 * sqrt(mu) * sqrt(budget))
        s = 2.0 * budget / (w + r)
        x = s * s - u
        if x > 0.0:  # also refuses -0.0 and NaN
            slope += 2.0 * s / r  # ds/dbudget = 1/r
        else:
            x = 0.0
        xs.append(x)
    return xs, slope


def _level_shares(n: int, terms, slack: float) -> list[float]:
    """The shares at the water level where their total S reaches n, from
    Newton steps on S that stop once S - n < slack.

    They start at min_j b_j(n), raised one float at a time while S < n - 1/2
    but never past the prop of a flat path (mu = w = 0), whose share is
    unbounded above it.  S is increasing and convex, so they fall towards
    the root from its right.  While they run, S >= n + slack > 0, so some
    slope term is positive (or NaN): no step divides by zero.  A step that
    does not lower the level (or is NaN) ends them, and so does one to
    S < n - 1/2.  Where S still misses n by 1/2, a path whose n-th item is
    at most the level holds the rest (a flat path, or one whose items all
    round to about one value so that its share leapt past n between
    adjacent levels): the first such path by (prop, j) takes what the
    others leave.
    """
    items = [(n + u) * mu + sqrt(n + u) * w + prop for u, mu, w, prop in terms]  # b_j(n)
    level = min(items)
    xs, slope = _shares(level, terms)
    if (total := sum(xs)) < n - 0.5:
        cap = min([prop for u, mu, w, prop in terms if mu == w == 0.0], default=math.inf)
        while total < n - 0.5 and level < cap:
            level = nextafter(level, cap)
            xs, slope = _shares(level, terms)
            total = sum(xs)
    while (excess := total - n) >= slack and (nxt := level - excess / slope) < level:
        nxs, nslope = _shares(nxt, terms)
        if (ntotal := sum(nxs)) < n - 0.5:
            break
        level, xs, slope, total = nxt, nxs, nslope, ntotal
    if not -0.5 < total - n < 0.5:
        full = [j for j, b in enumerate(items) if b <= level]
        for j in full:  # a share that large would swamp the others' sum
            xs[j] = 0.0
        if full:
            xs[min(full, key=lambda j: terms[j][3])] = max(0.0, n - sum(xs))
    return xs


def solve_relaxed(n: int, paths) -> list[float]:
    """Fractional split minimizing the object delay bound.

    At level L every path receives the largest allocation whose bound stays
    below L (zero if its propagation plus backlog alone exceeds L); Newton
    steps lower L until the level stops falling, and the allocations are
    scaled to sum to n.  All paths with positive allocation share the same
    bound, so no packet reassignment can lower the max.
    """
    terms = _terms(n, paths)
    if n == 0:
        return [0.0] * len(terms)
    xs = _level_shares(n, terms, 0.0)
    mass = sum(xs)
    return [x * (n / mass) for x in xs]


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
    last, nxt = [], []
    for c, (u, mu, w, prop) in zip(counts, terms):  # item(j, c) and item(j, c + 1)
        k = c + u
        last.append(k * mu + sqrt(k) * w + prop if c else -math.inf)
        k += 1
        nxt.append(k * mu + sqrt(k) * w + prop)
    evals = sum(map(bool, counts)) + m
    total = sum(counts)
    while True:
        lo = nxt.index(min(nxt))  # ties to the lowest path; no item is NaN
        if total < n:
            counts[lo] += 1
            last[lo] = nxt[lo]
            nxt[lo] = item(lo, counts[lo] + 1)
            total += 1
            evals += 1
            continue
        j = m - 1 - last[::-1].index(max(last))  # ties to the highest path
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


def _select(n: int, terms, stats: SolveStats | None = None) -> tuple[int, ...]:
    """:func:`take_cheapest` on `(u, mu, w, prop)` terms, started from the
    share floors at the water level, once S - n < 0.5."""
    xs = _level_shares(n, terms, 0.5)
    return take_cheapest(n, terms, [int(x) if x < n else n for x in xs], stats)


def solve_integer(n: int, paths, stats: SolveStats | None = None) -> tuple[int, ...]:
    """Per-path packet counts (summing to n) chosen by the object delay bound.

    The split is the n smallest bound increments in (b, j, x) order, an
    integer optimum of the bound; ties give more packets to lower-index paths.
    It starts from the share floors at a water level that Newton steps
    approach from above; the start sets only the work, not the split.
    """
    return _select(n, _terms(n, paths), stats)


#: The bound already adds each path's in-flight count, so splitting an object
#: behind a backlog is :func:`solve_integer`; the counts are new packets only.
split_object = solve_integer
