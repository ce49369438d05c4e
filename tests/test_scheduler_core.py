"""Unit and property tests for the split optimizer."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosim.errors import DegenerateInputError, DomainError, ValidationError
from sosim.scheduler_core import (
    PathParams,
    SolveStats,
    compute_w,
    d_upper,
    solve_integer,
    solve_relaxed,
    split_object,
    t_upper,
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


def corner_search(n, paths):
    """Brute-force m >= 3 reference: every ceil/floor corner of the relaxation,
    lowest bound first, ties to the lexicographically largest counts."""
    xs = solve_relaxed(n, paths)
    floors = [math.floor(x) for x in xs]
    rem = n - sum(floors)
    bumpable = [j for j, x in enumerate(xs) if math.ceil(x) > floors[j]]
    assert 0 <= rem <= len(bumpable)
    best_counts, best_d = None, math.inf
    for bump in itertools.combinations(bumpable, rem):
        counts = tuple(f + (j in bump) for j, f in enumerate(floors))
        d = max(t_upper(c, p.in_flight, p) + p.prop_ms for c, p in zip(counts, paths))
        if d < best_d or (d == best_d and counts > best_counts):
            best_d, best_counts = d, counts
    return best_counts


def test_integer_rounding_matches_corner_enumeration():
    rng = np.random.default_rng(3)
    for m in range(3, 9):
        for trial in range(150):
            if trial % 2:
                # integer-valued parameters drawn from a small pool, so paths
                # repeat and many corners tie exactly
                pool = [
                    PathParams(
                        float(rng.integers(1, 4)), float(rng.integers(0, 3)),
                        prop_ms=float(rng.choice([0, 5])), in_flight=int(rng.choice([0, 0, 2])),
                    )
                    for _ in range(int(rng.integers(1, 3)))
                ]
                paths = [pool[int(rng.integers(len(pool)))] for _ in range(m)]
            else:
                paths = [
                    PathParams(
                        float(rng.uniform(0.5, 10)), float(rng.uniform(0, 10)),
                        prop_ms=float(rng.uniform(0, 20)), in_flight=int(rng.integers(0, 4)),
                    )
                    for _ in range(m)
                ]
            n = int(rng.integers(1, 80))
            assert solve_integer(n, paths) == corner_search(n, paths)


def test_integer_rounding_costs_two_evals_m16():
    rng = np.random.default_rng(16)
    paths = [
        PathParams(float(rng.uniform(2, 20)), float(rng.uniform(0, 40)))
        for _ in range(16)
    ]
    stats = SolveStats(d_upper_evals=5)
    s = solve_integer(1000, paths, stats=stats)
    assert stats.d_upper_evals == 5 + 2
    assert s == corner_search(1000, paths)


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
