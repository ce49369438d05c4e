"""Unit and property tests for the split optimizer."""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sosim.errors import DegenerateInputError, DomainError, ValidationError
from sosim.scheduler_core import (
    LEVEL_TOLERANCE,
    MASS_TOLERANCE,
    PathParams,
    SolveStats,
    compute_w,
    d_upper,
    solve_integer,
    solve_relaxed,
    split_object,
    t_upper,
    take_cheapest,
    variance_w,
)


def flat_path(mu, w=0.0, prop=0.0, u=0):
    return PathParams(mu_ms=mu, w=w, prop_ms=prop, in_flight=u)


def brute_force_two(n, paths):
    """Exhaustive m=2 oracle with the same tie-break (more packets on path 0)."""
    k = np.arange(n + 1)
    h1 = (k + paths[0].in_flight) * paths[0].mu_ms \
        + np.sqrt(k + paths[0].in_flight) * paths[0].w + paths[0].prop_ms
    h2 = (n - k + paths[1].in_flight) * paths[1].mu_ms \
        + np.sqrt(n - k + paths[1].in_flight) * paths[1].w + paths[1].prop_ms
    g = np.maximum(h1, h2)
    best = g.min()
    k_star = int(np.flatnonzero(g == best).max())
    return best, (k_star, n - k_star)


# -- compute_w ---------------------------------------------------------------


def test_w_is_zero_at_epsilon_one():
    assert compute_w(1.0, 3.0, 9.0) == 0.0


def test_w_is_zero_for_collapsed_range():
    assert compute_w(0.025, 7.0, 7.0) == 0.0


def test_w_hand_value():
    # sqrt(-ln(0.025) * (5-1)^2 / 2)
    assert compute_w(0.025, 1.0, 5.0) == pytest.approx(5.432406062962478, rel=1e-12)


def test_w_domain_errors():
    with pytest.raises(DomainError):
        compute_w(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        compute_w(-0.1, 1.0, 2.0)
    with pytest.raises(ValidationError):
        compute_w(0.5, 3.0, 2.0)


@given(
    eps=st.floats(1e-6, 1.0),
    a=st.floats(0.0, 50.0),
    spread=st.floats(0.0, 50.0),
)
def test_w_matches_formula(eps, a, spread):
    w = compute_w(eps, a, a + spread)
    assert w == pytest.approx(math.sqrt(-math.log(eps) * spread**2 / 2.0), abs=1e-9)


# -- variance_w --------------------------------------------------------------


def test_variance_w_hand_value():
    # 4 * sqrt(2 * ln(1 / 0.025))
    assert variance_w(0.025, 4.0) == pytest.approx(10.864812125925, rel=1e-12)


def test_variance_w_zero_cases():
    assert variance_w(1.0, 5.0) == 0.0
    assert variance_w(0.025, 0.0) == 0.0


def test_variance_w_domain_errors():
    with pytest.raises(DomainError):
        variance_w(0.0, 1.0)
    with pytest.raises(DomainError):
        variance_w(1.5, 1.0)
    with pytest.raises(ValidationError):
        variance_w(0.5, -1.0)


@given(eps=st.floats(1e-6, 1.0), a=st.floats(0.0, 50.0), spread=st.floats(0.0, 50.0))
def test_variance_w_at_hoeffding_proxy_equals_compute_w(eps, a, spread):
    # Hoeffding's variance proxy for [a, b] is (b - a)^2 / 4, i.e. sigma = (b - a) / 2
    assert variance_w(eps, spread / 2.0) == pytest.approx(
        compute_w(eps, a, a + spread), rel=1e-12, abs=1e-12
    )


# -- t_upper / d_upper -------------------------------------------------------


def test_t_upper_zero_packets():
    assert t_upper(0, 0, flat_path(2.0, w=3.0)) == 0.0


def test_t_upper_linear_case():
    assert t_upper(10, 5, flat_path(2.0)) == pytest.approx(30.0)


def test_t_upper_hand_value():
    p = PathParams(10.0, 5.4324, 0.0)
    assert t_upper(100, 0, p) == pytest.approx(1054.324)


def test_t_upper_rejects_negative_counts():
    with pytest.raises(ValidationError):
        t_upper(-1, 0, flat_path(1.0))


def test_d_upper_max_over_paths():
    paths = [flat_path(10.0, prop=5.0), flat_path(1.0)]
    assert d_upper((3, 50), paths) == pytest.approx(50.0)


def test_d_upper_single_path():
    assert d_upper((4,), [flat_path(2.0, prop=1.0)]) == pytest.approx(9.0)


def test_d_upper_empty_object_is_max_prop():
    paths = [flat_path(3.0, prop=4.0), flat_path(1.0, prop=11.0)]
    assert d_upper((0, 0), paths) == pytest.approx(11.0)


def test_d_upper_length_mismatch():
    with pytest.raises(ValidationError):
        d_upper((1, 1), [flat_path(1.0)])


def test_d_upper_rejects_negative_count():
    with pytest.raises(ValidationError):
        d_upper((-1, 5), [flat_path(1.0), flat_path(2.0)])


# -- relaxed solver ----------------------------------------------------------


def test_relaxed_symmetric_paths():
    paths = [flat_path(2.0, w=1.0), flat_path(2.0, w=1.0)]
    assert solve_relaxed(10, paths) == pytest.approx([5.0, 5.0])


def test_relaxed_linear_equalization():
    xs = solve_relaxed(30, [flat_path(1.0), flat_path(2.0)])
    assert xs == pytest.approx([20.0, 10.0], rel=1e-9)


def test_relaxed_skips_unreachable_path():
    xs = solve_relaxed(10, [flat_path(1.0), flat_path(1.0, prop=100.0)])
    assert xs == pytest.approx([10.0, 0.0], abs=1e-9)


def test_relaxed_degenerate_error():
    with pytest.raises(DegenerateInputError):
        solve_relaxed(5, [PathParams(0.0, 0.0), PathParams(0.0, 0.0)])


def test_relaxed_wardrop_equalization_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        paths = [
            PathParams(
                float(rng.uniform(0.1, 20)), float(rng.uniform(0, 30)),
                prop_ms=float(rng.uniform(0, 2)),
            )
            for _ in range(m)
        ]
        n = 10_000
        xs = solve_relaxed(n, paths)
        assert sum(xs) == pytest.approx(n, rel=1e-9)
        bounds = [
            (x + p.in_flight) * p.mu_ms + math.sqrt(x + p.in_flight) * p.w + p.prop_ms
            for x, p in zip(xs, paths)
            if x > 0
        ]
        level = max(bounds)
        assert max(bounds) - min(bounds) <= 1e-6 * level


def ref_solve_relaxed(n, paths):
    """The water-level bisection with one inverse-bound call per path."""

    def bound_at(x, p):
        k = x + p.in_flight
        return k * p.mu_ms + math.sqrt(k) * p.w + p.prop_ms

    def invert_bound(level, p):
        budget = level - p.prop_ms
        if budget <= 0:
            return 0.0
        if p.mu_ms == 0.0:
            s = budget / p.w
        else:
            s = (-p.w + math.sqrt(p.w * p.w + 4.0 * p.mu_ms * budget)) / (2.0 * p.mu_ms)
        return max(0.0, s * s - p.in_flight)

    if n == 0:
        return [0.0] * len(paths)
    lo = min(bound_at(0.0, p) for p in paths)
    hi = min(bound_at(float(n), p) for p in paths)
    while hi - lo > LEVEL_TOLERANCE * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        total = sum(invert_bound(mid, p) for p in paths)
        if abs(total - n) <= MASS_TOLERANCE * n:
            lo = hi = mid
            break
        if total < n:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    xs = [invert_bound(level, p) for p in paths]
    mass = sum(xs)
    if mass > 0.0:
        xs = [x * (n / mass) for x in xs]
    return xs


@st.composite
def relaxed_inputs(draw):
    """Up to 16 paths: some with mu = 0 (w > 0), some with integer-valued
    parameters, backlogs, and propagation delays far above the level."""
    m = draw(st.integers(1, 16))
    paths = []
    for _ in range(m):
        mu = draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0), st.integers(1, 5).map(float)))
        w = draw(st.floats(1e-3, 60.0) if mu == 0.0 else st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
        prop = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(1e3, 1e6)))
        paths.append(PathParams(mu, w, prop, draw(st.integers(0, 60))))
    return draw(st.one_of(st.integers(0, 40), st.integers(41, 1000))), paths


@settings(max_examples=300, deadline=None)
@given(relaxed_inputs())
@example((7, [PathParams(0.0, 2.0), PathParams(0.0, 3.0, 1.0, 4)]))
@example((5, [PathParams(1.0, 0.0), PathParams(2.0, 1.0, 1e5, 3), PathParams(0.0, 1.0, 1e5)]))
@example((1000, [PathParams(2.0, 3.0, 0.0, 60)] * 16))
def test_relaxed_matches_per_path_inverse_bit_for_bit(case):
    n, paths = case
    bits = [struct.pack("<d", x) for x in solve_relaxed(n, paths)]
    assert bits == [struct.pack("<d", x) for x in ref_solve_relaxed(n, paths)]


# -- integer solver ----------------------------------------------------------


def test_integer_dominant_path():
    s = solve_integer(10, [flat_path(1.0), flat_path(100.0)])
    assert s == (10, 0)
    assert d_upper(s, [flat_path(1.0), flat_path(100.0)]) == pytest.approx(10.0)


def test_integer_symmetric_tiebreak():
    s = solve_integer(10, [flat_path(1.0), flat_path(1.0)])
    assert s == (5, 5)
    s = solve_integer(11, [flat_path(1.0), flat_path(1.0)])
    assert s == (6, 5)  # ties prefer the lowest-index path


def test_integer_zero_object():
    assert solve_integer(0, [flat_path(1.0), flat_path(2.0)]) == (0, 0)


def test_integer_single_path():
    assert solve_integer(7, [flat_path(3.0)]) == (7,)


def test_integer_matches_brute_force_two_paths():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 201))
        paths = [
            PathParams(
                float(rng.uniform(0.1, 100)), float(rng.uniform(0, 100)),
                prop_ms=float(rng.uniform(0, 50)),
            )
            for _ in range(2)
        ]
        s = solve_integer(n, paths)
        best, counts = brute_force_two(n, paths)
        assert d_upper(s, paths) == best
        assert s == counts


def test_integer_eval_budget():
    stats = SolveStats()
    paths = [flat_path(3.0, w=2.0), flat_path(7.0, w=4.0, prop=3.0)]
    n = 1_000_000
    solve_integer(n, paths, stats=stats)
    assert stats.d_upper_evals <= 2 * math.ceil(math.log2(n + 1)) + 4


def cheapest_items(n, paths):
    """Slow reference selection: sort every item b_j(x), x = 1..n, by
    (b, j, x) and count each path's share of the n smallest."""
    items = sorted(
        (t_upper(x, p.in_flight, p) + p.prop_ms, j, x)
        for j, p in enumerate(paths)
        for x in range(1, n + 1)
    )
    return tuple(sum(1 for _, i, _ in items[:n] if i == j) for j in range(len(paths)))


@st.composite
def small_integer_inputs(draw):
    """m = 3 or 4 paths, n <= 12 and start counts for take_cheapest; half draw
    small integer parameters, which repeat paths and force equal items, and
    some paths have mu = 0 and w > 0."""
    m = draw(st.integers(3, 4))
    n = draw(st.integers(1, 12))
    paths = []
    for _ in range(m):
        if draw(st.booleans()):
            mu, w, prop = (float(draw(st.integers(0, 3))) for _ in range(3))
            w = w if mu else w + 1.0
        else:
            mu = draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
            w = draw(st.floats(0.5 if mu == 0.0 else 0.0, 20.0))
            prop = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
        paths.append(PathParams(mu, w, prop, draw(st.integers(0, 5))))
    return n, paths, draw(st.lists(st.integers(0, n + 2), min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@given(small_integer_inputs())
@example((9, [PathParams(4.7261, 5.7307), PathParams(3.9581, 18.6710),
              PathParams(8.8986, 3.7075), PathParams(0.72665, 6.8403)], [2, 1, 1, 5]))
def test_integer_matches_brute_force_selection(case):
    n, paths, start = case
    stats = SolveStats(d_upper_evals=5)
    counts = solve_integer(n, paths, stats=stats)
    assert stats.d_upper_evals >= 5 + len(paths)  # at least each path's next item
    best = min(
        d_upper(split, paths)
        for split in itertools.product(range(n + 1), repeat=len(paths))
        if sum(split) == n
    )
    assert d_upper(counts, paths) == best
    assert counts == cheapest_items(n, paths)
    # the selection is exact from any start, which exercises its swaps
    terms = [(p.in_flight, p.mu_ms, p.w, p.prop_ms) for p in paths]
    assert take_cheapest(n, terms, list(start)) == counts
    if n == 9 and paths[0].mu_ms == 4.7261:
        # the best floor/ceil corner of the relaxation was (2, 1, 1, 5) at 22.63
        assert counts == (2, 0, 1, 6)


@st.composite
def two_path_inputs(draw):
    n = draw(st.integers(1, 1000))
    paths = [
        PathParams(
            draw(st.floats(0.1, 30.0)), draw(st.floats(0.0, 50.0)),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))), draw(st.integers(0, 60)),
        )
        for _ in range(2)
    ]
    return n, paths


@settings(max_examples=200, deadline=None)
@given(two_path_inputs())
@example((1000, [PathParams(2.0, 3.0, 0.0, 60), PathParams(2.0, 3.0, 0.0, 60)]))
@example((7, [PathParams(1.0, 0.0, 5.0), PathParams(1.0, 0.0)]))
def test_two_path_bisection_is_the_selection(case):
    # _solve_two is the m = 2 fast path of take_cheapest
    n, paths = case
    terms = [(p.in_flight, p.mu_ms, p.w, p.prop_ms) for p in paths]
    assert solve_integer(n, paths) == take_cheapest(n, terms, [0, 0])


def test_integer_monotone_in_n():
    rng = np.random.default_rng(11)
    paths = [
        PathParams(2.0, 4.0, prop_ms=1.0),
        PathParams(5.0, 1.0, prop_ms=0.0),
    ]
    prev = 0.0
    for n in range(1, 80):
        d = d_upper(solve_integer(n, paths), paths)
        assert d >= prev - 1e-12
        prev = d


@settings(max_examples=60)
@given(
    c=st.floats(0.01, 1000.0),
    n=st.integers(1, 150),
    mu1=st.floats(0.1, 50.0),
    mu2=st.floats(0.1, 50.0),
    w1=st.floats(0.0, 50.0),
    w2=st.floats(0.0, 50.0),
    p1=st.floats(0.0, 20.0),
    p2=st.floats(0.0, 20.0),
)
def test_integer_scale_covariance(c, n, mu1, mu2, w1, w2, p1, p2):
    paths = [flat_path(mu1, w=w1, prop=p1), flat_path(mu2, w=w2, prop=p2)]
    scaled = [flat_path(mu1 * c, w=w1 * c, prop=p1 * c), flat_path(mu2 * c, w=w2 * c, prop=p2 * c)]
    s1 = solve_integer(n, paths)
    s2 = solve_integer(n, scaled)
    # exactly tied splits may flip by one ulp under scaling, so compare bounds:
    # the unscaled argmin must stay optimal in the scaled problem and vice versa
    assert d_upper(s2, scaled) == pytest.approx(c * d_upper(s1, paths), rel=1e-9)
    assert d_upper(s1, scaled) == pytest.approx(
        d_upper(s2, scaled), rel=1e-9
    )


# -- split_object ------------------------------------------------------------


def test_split_object_reduces_to_solve_integer():
    paths = [flat_path(1.0, w=2.0), flat_path(3.0, w=0.5)]
    assert split_object(25, paths) == solve_integer(25, paths)


def test_split_object_offsets_backlog():
    paths = [flat_path(1.0, u=4), flat_path(1.0)]
    assert split_object(6, paths) == (1, 5)


def test_split_object_skips_swamped_path():
    # path 1's backlog alone exceeds path 2's full-object delay
    paths = [flat_path(1.0, u=1000), flat_path(1.0)]
    s = split_object(6, paths)
    assert s == (0, 6)
    best, counts = brute_force_two(6, paths)
    assert s == counts


# -- types -------------------------------------------------------------------


def test_path_params_validation():
    with pytest.raises(ValidationError):
        PathParams(-1.0, 0.0)
    with pytest.raises(ValidationError):
        PathParams(1.0, -2.0)
    with pytest.raises(ValidationError):
        PathParams(1.0, 0.0, prop_ms=-0.5)
    with pytest.raises(ValidationError):
        PathParams(1.0, 0.0, in_flight=-1)


@pytest.mark.parametrize("field", ["mu_ms", "w", "prop_ms"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_path_params_non_finite_rejected(field, bad):
    values = {"mu_ms": 1.0, "w": 1.0, "prop_ms": 0.0, field: bad}
    with pytest.raises(ValidationError):
        PathParams(**values)


def test_nan_mean_never_reaches_the_solver():
    # `nan < 0` is false, so a check by `< 0` alone lets this through and the
    # solver puts all ten packets on the path whose delay is unknown.
    with pytest.raises(ValidationError):
        solve_integer(10, [PathParams(math.nan, 1.0), PathParams(5.0, 1.0)])
