"""Tests for the EDF and SEDPF plan-level baselines."""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sosim.baselines as baselines
from sosim.baselines import clark_max, edf_assign, sedpf_assign
from sosim.errors import ValidationError
from sosim.scheduler_core import PathParams
from sosim.simulator import dispatch_order


def state(in_flight, means, stds=None, props=None):
    """A feed snapshot `(params, stddevs)`; the baselines do not read `w`."""
    m = len(in_flight)
    props = list(props) if props else [0.0] * m
    params = [PathParams(mu, 0.0, p, u) for u, mu, p in zip(in_flight, means, props)]
    return params, list(stds) if stds else [0.0] * m


# ---------------------------------------------------------------------------
# Per-packet reference: the greedy rules one packet at a time, with the Clark
# fold over statistics.NormalDist.

_STD_NORMAL = NormalDist()


def ref_clark_max(m1, v1, m2, v2):
    a2 = v1 + v2
    if a2 <= 0.0:
        return (m1, v1) if m1 >= m2 else (m2, v2)
    a = math.sqrt(a2)
    alpha = (m1 - m2) / a
    cdf = _STD_NORMAL.cdf(alpha)
    pdf = _STD_NORMAL.pdf(alpha)
    mean = m1 * cdf + m2 * (1.0 - cdf) + a * pdf
    second = (m1 * m1 + v1) * cdf + (m2 * m2 + v2) * (1.0 - cdf) + (m1 + m2) * a * pdf
    return mean, max(second - mean * mean, 0.0)


def ref_edf_one(params, stds):
    best = 0
    best_cost = math.inf
    for j, p in enumerate(params):
        cost = (p.in_flight + 1) * p.mu_ms + p.prop_ms
        if cost < best_cost:
            best, best_cost = j, cost
    return best


def ref_sedpf_one(params, stds):
    m = len(params)
    best = 0
    best_key = None
    for cand in range(m):
        means = []
        variances = []
        for j, p in enumerate(params):
            load = p.in_flight + (1 if j == cand else 0)
            means.append(load * p.mu_ms + p.prop_ms)
            variances.append(load * stds[j] ** 2)
        mean, var = means[0], variances[0]
        for m2, v2 in zip(means[1:], variances[1:]):
            mean, var = ref_clark_max(mean, var, m2, v2)
        p = params[cand]
        edf_cost = (p.in_flight + 1) * p.mu_ms + p.prop_ms
        key = (mean, edf_cost)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def ref_plan(assign_one, s, n):
    params, stds = list(s[0]), s[1]
    order = []
    for _ in range(n):
        j = assign_one(params, stds)
        order.append(j)
        params[j] = replace(params[j], in_flight=params[j].in_flight + 1)
    return tuple(order)


def edf_plan(s, n):
    """EDF's counts, and the order the engine dispatches them in."""
    counts = edf_assign(*s, n)
    return counts, dispatch_order(counts, s[0])


def ref_edf_plan(s, n):
    """The per-packet EDF order, and its per-path counts."""
    order = ref_plan(ref_edf_one, s, n)
    return tuple(order.count(j) for j in range(len(s[0]))), order


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# Greedy rules


def test_edf_prefers_smaller_mean():
    assert edf_assign(*state([0, 0], [10.0, 12.0]), 1) == (1, 0)


def test_edf_accounts_for_backlog():
    assert edf_assign(*state([1, 0], [10.0, 12.0]), 1) == (0, 1)  # 20 vs 12


def test_edf_tie_breaks_low_index():
    assert edf_assign(*state([0, 0], [7.0, 7.0]), 1) == (1, 0)


def test_edf_includes_propagation():
    assert edf_assign(*state([0, 0], [10.0, 10.0], props=[5.0, 0.0]), 1) == (0, 1)


def test_edf_balances_load():
    means = [2.0, 5.0, 9.0]
    s = state([0, 0, 0], means)
    counts, order = edf_plan(s, 500)
    assert sum(counts) == len(order) == 500
    assert (counts, order) == ref_edf_plan(s, 500)
    loads = [c * m for c, m in zip(counts, means)]
    assert max(loads) - min(loads) <= max(means)


def test_sedpf_single_path():
    assert sedpf_assign(*state([3], [10.0], [4.0]), 1)[0] == 0


def test_sedpf_avoids_highly_variable_path_for_single_packet():
    # stable-but-slower path wins when the fast path fluctuates wildly
    assert sedpf_assign(*state([0, 0], [10.0, 12.0], [50.0, 1.0]), 1)[0] == 1


def test_sedpf_uses_variable_path_under_backlog():
    # with a deep queue on the stable path the variable one becomes attractive
    assert sedpf_assign(*state([0, 20], [10.0, 12.0], [50.0, 1.0]), 1)[0] == 0


def test_sedpf_reduces_to_edf_without_variance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 30))
        st_a = state(
            [int(x) for x in rng.integers(0, 20, size=m)],
            [float(x) for x in rng.uniform(0.0, 20, size=m)],
            [0.0] * m,
            [float(x) for x in rng.uniform(0, 5, size=m)],
        )
        assert sedpf_assign(*st_a, n) == edf_plan(st_a, n)[1]


def test_sedpf_edf_agree_on_backlog_masked_candidates():
    # a huge third-path backlog dominates both candidates' maxima; the tie
    # must still resolve the way EDF does
    st_a = state([0, 0, 1], [6.0, 5.0, 100.0], [0.0, 0.0, 0.0])
    assert edf_plan(st_a, 1) == ((0, 1, 0), (1,)) == ref_edf_plan(st_a, 1)
    assert sedpf_assign(*st_a, 1) == (1,)


@pytest.mark.parametrize("field", ["means", "stds", "props"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_path_values_rejected(field, value):
    lists = {"means": [1.0, 2.0], "stds": [1.0, 1.0], "props": [0.0, 1.0]}
    lists[field][0] = value
    # PathParams refuses the means and props; sedpf_assign refuses the stds
    with pytest.raises(ValidationError):
        sedpf_assign(*state([0, 0], lists["means"], lists["stds"], lists["props"]), 1)


def test_assigners_are_deterministic():
    st_a = state([2, 1], [3.0, 4.0], [1.0, 2.0])
    assert all(sedpf_assign(*st_a, 5) == sedpf_assign(*st_a, 5) for _ in range(5))
    assert all(edf_assign(*st_a, 5) == edf_assign(*st_a, 5) for _ in range(5))


# ---------------------------------------------------------------------------
# Plan-level assignment against the per-packet reference


@st.composite
def queue_states(draw):
    """Random path views; a third force ties through repeated integer-valued
    paths, and some of those have all-zero stddevs."""
    m = draw(st.integers(1, 9))
    m = 16 if m == 9 else m
    if draw(st.integers(0, 2)) == 0:
        paths = [(1.0, 0.0, 0.0), (1.0, 2.0, 0.0), (2.0, 1.0, 1.0), (3.0, 0.0, 2.0)]
        picks = draw(st.lists(st.sampled_from(paths), min_size=m, max_size=m))
        zero_std = draw(st.booleans())
        return state(
            draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
            [mean for mean, _, _ in picks],
            [0.0 if zero_std else std for _, std, _ in picks],
            [prop for _, _, prop in picks],
        )
    size = {"min_size": m, "max_size": m}
    return state(
        draw(st.lists(st.integers(0, 30), **size)),
        draw(st.lists(st.floats(0.1, 20.0), **size)),
        draw(st.lists(st.floats(0.0, 50.0), **size)),
        draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), **size)),
    )


@settings(max_examples=250, deadline=None)
@given(queue_states(), st.integers(0, 80))
@example(state([0] * 16, [1.0] * 16, [0.0] * 16), 80)
@example(state([3, 0, 3, 0] * 4, [2.0, 1.0] * 8, [1.0, 1.0] * 8, [1.0, 2.0] * 8), 40)
@example(state([0, 0, 0], [5.0, 5.0, 5.0], [2.0, 2.0, 2.0]), 30)
# zero stddevs beside zero backlogs: some steps have a summed variance of 0
@example(state([0, 0, 0, 0], [1.0, 2.0, 1.5, 3.0], [0.0, 2.0, 0.0, 1.0]), 25)
# path 0's backlog sets every candidate's max: ties fall to the EDF cost
@example(state([5, 0, 0], [1.0, 1.0, 2.0], [0.0, 0.0, 0.0]), 12)
# subnormal means and variances (sqrt(5e-324) squares to 5e-324)
@example(state([1, 1, 0], [5e-324, 5e-324, 1.0], [math.sqrt(5e-324)] * 2 + [5e-324]), 20)
# identical paths: every choice rests on the last bits of the folded means
@example(state([3] * 5, [1.0] * 5, [3.0] * 5), 20)
@example(state([1, 1], [1.0, 1.0], [3.0, 3.0]), 20)
@example(state([2], [3.0], [1.0]), 5)
@example(state([0, 1], [2.0, 1.0], [1.0, 3.0]), 9)
@example(state([0, 1, 2], [2.0, 1.0, 4.0], [1.0, 3.0, 0.5]), 0)
def test_plans_match_per_packet_reference(s, n):
    stds = list(s[1])
    assert edf_plan(s, n) == ref_edf_plan(s, n)
    assert sedpf_assign(*s, n) == ref_plan(ref_sedpf_one, s, n)
    assert s[1] == stds  # the caller's view is left as it was


def test_sedpf_plan_matches_per_packet_reference_at_benchmark_size():
    # one 16-path decision drawn like the benchmark's many-path plans: means
    # U(2, 20) ms, stddevs U(0.5, 50) ms, short backlogs, no propagation delay
    rng = np.random.default_rng(16)
    backlogs = np.minimum(rng.geometric(1 / 6, 16) - 1, 59).tolist()
    s = state(backlogs, rng.uniform(2.0, 20.0, 16).tolist(), rng.uniform(0.5, 50.0, 16).tolist())
    assert sedpf_assign(*s, 300) == ref_plan(ref_sedpf_one, s, 300)


@st.composite
def edf_states(draw):
    """Path views at the benchmark's sizes (m up to 16, backlogs up to 60);
    a third draw small integer means and delays, which forces equal costs."""
    m = draw(st.integers(1, 16))
    size = {"min_size": m, "max_size": m}
    backlogs = draw(st.lists(st.integers(0, 60), **size))
    if draw(st.integers(0, 2)) == 0:
        means = draw(st.lists(st.integers(0, 4).map(float), **size))
        props = draw(st.lists(st.integers(0, 3).map(float), **size))
    else:
        means = draw(st.lists(st.floats(0.0, 30.0), **size))
        props = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), **size))
    return state(backlogs, means, None, props)


@settings(max_examples=60, deadline=None)
@given(edf_states(), st.one_of(st.integers(0, 40), st.integers(500, 1000)))
@example(state([0] * 16, [1.0] * 16), 1000)
@example(state([60, 0], [0.0, 0.0], None, [1.0, 1.0]), 1000)
@example(state([5, 0, 2], [2.0, 3.0, 4.0], None, [0.0, 5.0, 2.0]), 0)
@example(state([0, 3, 1], [5e-324, 2.0, 1.0], None, [7.0, 0.0, 1.0]), 40)  # subnormal mean
@example(state([2, 0, 5], [1e-300, 3.0, 0.5], None, [4.0, 0.0, 1.0]), 30)
# a flat path 0 beside items below its prop: the rightmost minimizer of the
# two-path bound would send all ten packets to path 0
@example(state([0, 0], [0.0, 0.3], None, [1.0, 0.0]), 10)
def test_edf_plan_matches_per_packet_reference_at_benchmark_sizes(s, n):
    assert edf_plan(s, n) == ref_edf_plan(s, n)


@settings(max_examples=60, deadline=None)
@given(edf_states(), st.integers(0, 1000), st.lists(st.floats(0.0, 100.0), min_size=16, max_size=16))
@example(state([0, 0], [1.0, 1.0]), 1, [0.0, 50.0])
def test_edf_counts_ignore_w(s, n, ws):
    # one random w per path (zip drops the spare draws); EDF must not read it
    params, stds = s
    weighted = [replace(p, w=w) for p, w in zip(params, ws)]
    assert edf_assign(weighted, stds, n) == edf_assign(params, stds, n)


def resumed_fold_calls(m, order, reuse=True):
    """Clark steps of a plan under the resume rule.  The first packet folds
    every candidate in full, and the shared fold of the unbumped paths with
    them.  After a packet sent to path b, candidates 0..b-1 resume at b and
    later candidates restart from the shared fold.  With `reuse` the winner's
    fold becomes the shared fold from path b on; without it the shared fold
    is extended again, m - 1 - b more steps (m - 2 after path 0)."""
    first = max(m * (m - 1) // 2 + 2 * m - 3, 0)

    def after(b):
        if b == 0:
            return m * (m - 1) // 2 + m - 1 if reuse else first
        return b * (m - b) + (m - b) * (m - b + 1) // 2 + (0 if reuse else m - 1 - b)

    return sum(after(b) for b in order[:-1]) + (first if order else 0)


def count_clark_steps(mp):
    """Patch `sosim.baselines.erf` to count calls: one per Clark step whose
    summed variance is positive."""
    calls = []
    erf = baselines.erf

    def counted(x):
        calls.append(x)
        return erf(x)

    mp.setattr(baselines, "erf", counted)
    return calls


# m -> (plan, Clark steps) of six packets when the last path is the fastest
FASTEST_LAST = {
    1: ((0,) * 6, 0),
    2: ((1, 1, 1, 1, 0, 1), 12),
    3: ((2, 2, 2, 1, 2, 2), 23),  # 24 extending the shared fold again
    16: ((15, 14, 15, 13, 15, 14), 273),  # 276 so, and 894 refolding everything
}


@pytest.mark.parametrize("m", [1, 2, 3, 16])
def test_sedpf_fold_steps_call_erf_through_module_global(monkeypatch, m):
    # every path has a backlog and a stddev, so every step calls erf
    calls = count_clark_steps(monkeypatch)
    # path 0 wins every packet, so each later packet refolds every candidate
    # and takes the shared fold from the winner's
    assert sedpf_assign(*state([1] * m, [1.0] + [50.0] * (m - 1), [2.0] * m), 3) == (0,) * 3
    assert len(calls) == max(m * (m - 1) // 2 + 2 * m - 3, 0) + 2 * (m * (m - 1) // 2 + m - 1)
    # the last path wins: the folds resume at the path the previous packet took
    calls.clear()
    order = sedpf_assign(*state([1] * m, [float(m - j) for j in range(m)], [2.0] * m), 6)
    assert (order, len(calls)) == FASTEST_LAST[m]
    assert len(calls) == resumed_fold_calls(m, order)


@st.composite
def busy_states(draw):
    """Random path views in which every path has a backlog and a stddev, so
    every Clark step has a positive summed variance."""
    m = draw(st.integers(1, 9))
    m = 16 if m == 9 else m
    size = {"min_size": m, "max_size": m}
    return state(
        draw(st.lists(st.integers(1, 30), **size)),
        draw(st.lists(st.floats(0.1, 20.0), **size)),
        draw(st.lists(st.floats(0.1, 50.0), **size)),
        draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), **size)),
    )


@settings(max_examples=100, deadline=None)
@given(busy_states(), st.integers(0, 40))
def test_sedpf_fold_calls_follow_the_resume_rule(s, n):
    with pytest.MonkeyPatch.context() as mp:
        calls = count_clark_steps(mp)
        order = sedpf_assign(*s, n)
    m = len(s[0])
    assert len(calls) == resumed_fold_calls(m, order)
    # reusing the winner's fold saves steps after any packet but the last
    # that goes to a path b <= m - 2
    old_rule = resumed_fold_calls(m, order, reuse=False)
    if m >= 3 and any(b <= m - 2 for b in order[:-1]):
        assert len(calls) < old_rule
    else:
        assert len(calls) == old_rule


# ---------------------------------------------------------------------------
# Clark's max of two Gaussians


def test_clark_max_degenerate_is_plain_max():
    mean, var = clark_max(3.0, 0.0, 5.0, 0.0)
    assert (mean, var) == (5.0, 0.0)


def test_clark_max_against_monte_carlo():
    rng = np.random.default_rng(2)
    x = rng.normal(10.0, 3.0, size=200_000)
    y = rng.normal(11.0, 1.0, size=200_000)
    mean, var = clark_max(10.0, 9.0, 11.0, 1.0)
    assert mean == pytest.approx(np.maximum(x, y).mean(), rel=0.01)
    assert var == pytest.approx(np.maximum(x, y).var(), rel=0.05)


def test_clark_max_matches_normaldist_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [
        (3.0, 0.0, 5.0, 0.0),
        (5.0, 0.0, 5.0, 0.0),
        (-0.0, 0.0, 0.0, 0.0),
        (4.0, 1.0, 4.0, 1.0),
        (4.0, 0.0, 9.0, 2.5),
        (1e6, 1e-300, 0.0, 1e-300),
        (0.0, 5e-324, 0.0, 5e-324),
        (1e-9, 1.0, -1e-9, 1.0),
        (-3.0, 2.0, 250.0, 1e4),
        (7.0, 1e12, 7.5, 3.0),
    ]
    means = rng.uniform(-50.0, 1000.0, size=(4000, 2))
    variances = rng.uniform(0.0, 2500.0, size=(4000, 2)) * (rng.random((4000, 2)) < 0.9)
    cases += [(m1, v1, m2, v2) for (m1, m2), (v1, v2) in zip(means.tolist(), variances.tolist())]
    # alphas near zero, where the two cdfs' rounding is most delicate
    close = rng.uniform(0.0, 100.0, size=2000).tolist()
    cases += [(x, 1.0, x + d, 1.5) for x, d in zip(close, rng.normal(0.0, 0.5, size=2000).tolist())]
    for case in cases:
        got, want = clark_max(*case), ref_clark_max(*case)
        assert [_bits(x) for x in got] == [_bits(x) for x in want], case
        # the mean-only call stops after the first moment, with the same bits
        assert _bits(clark_max(*case, False)) == _bits(got[0]), case
