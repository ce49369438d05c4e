"""Tests for the rolling-window delay estimator."""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sosim import estimation
from sosim.errors import NoDataError, ValidationError
from sosim.estimation import RollingWindow, nearest_rank, snapshot_params
from sosim.scheduler_core import variance_w


def test_record_appends():
    w = RollingWindow(10)
    w.record(5.0)
    assert w.as_array().tolist() == [5.0]


def test_eviction_at_capacity():
    w = RollingWindow(3)
    for x in (1, 2, 3, 4):
        w.record(x)
    assert w.as_array().tolist() == [2.0, 3.0, 4.0]


def test_default_capacity_keeps_last_5000():
    w = RollingWindow()
    for x in range(5001):
        w.record(float(x))
    assert len(w) == 5000
    assert w.as_array().min() == 1.0  # sample 0 evicted


def test_window_capacity_must_be_positive():
    with pytest.raises(ValidationError, match="capacity"):
        RollingWindow(0)


def test_empty_window_has_no_array():
    with pytest.raises(NoDataError, match="window is empty"):
        RollingWindow(5).as_array()


def test_negative_sample_rejected():
    w = RollingWindow(5)
    with pytest.raises(ValidationError):
        w.record(-0.1)
    with pytest.raises(ValidationError):
        w.extend([1.0, -2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_rejected_before_any_write(bad):
    w = RollingWindow(3)
    w.extend([1.0, 2.0])
    with pytest.raises(ValidationError):
        w.record(bad)
    with pytest.raises(ValidationError):
        w.extend([3.0, bad])
    with pytest.raises(ValidationError):
        w.extend([4.0] * 5 + [bad])  # longer than the capacity
    assert w.as_array().tolist() == [1.0, 2.0]
    assert w.stddev() == 0.5


def test_as_array_follows_writes_and_is_read_only():
    w = RollingWindow(3)
    w.extend([1.0, 2.0])
    first = w.as_array()
    assert w.as_array() is first
    with pytest.raises(ValueError):
        first[0] = 9.0
    w.record(3.0)
    assert w.as_array().tolist() == [1.0, 2.0, 3.0]
    w.extend([4.0])
    assert w.as_array().tolist() == [2.0, 3.0, 4.0]


def test_moments_match_numpy_bit_for_bit_at_default_capacity():
    rng = np.random.default_rng(17)
    w = RollingWindow()
    ref: deque[float] = deque(maxlen=w.capacity)
    writes = [rng.gamma(2.0, 5.0, 3000), rng.gamma(0.5, 40.0, 4000),  # wraps around
              rng.gamma(3.0, 1e3, 7000)]  # longer than the capacity
    for samples in writes:
        w.extend(samples)
        ref.extend(samples)
        arr = np.array(ref)
        assert w.mean() == float(np.mean(arr)) and w.stddev() == float(np.std(arr))
        for x in samples[:5]:
            w.record(x)
            ref.append(x)
        arr = np.array(ref)
        assert w.stddev() == float(np.std(arr)) and w.mean() == float(np.mean(arr))


def test_snapshots_copy_no_window_and_compute_moments_once_per_write_epoch(monkeypatch):
    copies, reductions = [], []
    as_array = RollingWindow.as_array

    def counted_copy(self):
        copies.append(self)
        return as_array(self)

    def counted_reduce(arr):
        reductions.append(arr.size)
        return np.add.reduce(arr)

    monkeypatch.setattr(RollingWindow, "as_array", counted_copy)
    # _moments' two passes (the sum, then the squared deviations) are the
    # module's only np.add.reduce calls
    counting_np = SimpleNamespace(**{**vars(np), "add": SimpleNamespace(reduce=counted_reduce)})
    monkeypatch.setattr(estimation, "np", counting_np)
    w = RollingWindow()
    w.extend(np.arange(6000.0))
    for _ in range(3):
        snapshot_params(w, 0.025)
        w.stddev()
        w.mean()
    assert reductions == [5000, 5000]
    w.record(1.0)
    w.stddev()
    snapshot_params(w, 0.025)
    w.extend([2.0, 3.0])
    snapshot_params(w, 0.025)
    assert reductions == [5000] * 6
    assert copies == []


def test_snapshot_constant_window():
    w = RollingWindow(10)
    for _ in range(3):
        w.record(10.0)
    p = snapshot_params(w, 0.025)
    assert (p.mu_ms, p.w) == (10.0, 0.0)


def test_snapshot_nearest_rank_p95():
    w = RollingWindow(200)
    w.extend(range(1, 101))
    assert nearest_rank(w.as_array(), 0.95) == 95.0
    assert nearest_rank(w.as_array(), 0.05) == 5.0
    assert snapshot_params(w, 0.05).mu_ms == 50.5


def test_snapshot_empty_window_errors():
    with pytest.raises(NoDataError):
        snapshot_params(RollingWindow(5), 0.05)


def test_snapshot_gamma_monte_carlo():
    rng = np.random.default_rng(123)
    w = RollingWindow(100_000)
    w.extend(rng.gamma(100.0, 0.1, size=100_000))  # mean 10, stddev 1
    p = snapshot_params(w, 0.025)
    assert p.mu_ms == pytest.approx(10.0, rel=0.01)
    assert p.w == pytest.approx(variance_w(0.025, 1.0), rel=0.02)


def test_snapshot_is_pure():
    w1, w2 = RollingWindow(50), RollingWindow(50)
    data = [3.0, 1.0, 4.0, 1.5, 9.0]
    w1.extend(data)
    w2.extend(data)
    assert snapshot_params(w1, 0.05, prop_ms=2.0) == snapshot_params(w2, 0.05, prop_ms=2.0)


def test_only_last_capacity_samples_matter():
    noisy = RollingWindow(4)
    noisy.extend([99.0, 123.0, 7.0])
    fresh = RollingWindow(4)
    tail = [2.0, 4.0, 6.0, 8.0]
    noisy.extend(tail)
    fresh.extend(tail)
    assert snapshot_params(noisy, 0.05) == snapshot_params(fresh, 0.05)


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60), st.floats(0.0, 1e6))
def test_percentile_monotone_under_large_insert(samples, bump):
    w = RollingWindow(1000)
    w.extend(samples)
    before = nearest_rank(w.as_array(), 0.95)
    w.record(max(samples) + bump)
    assert nearest_rank(w.as_array(), 0.95) >= before


def test_nearest_rank_bounds():
    assert nearest_rank(np.array([5.0]), 0.95) == 5.0
    assert nearest_rank(np.array([1.0, 2.0]), 0.0) == 1.0
    with pytest.raises(NoDataError):
        nearest_rank(np.array([]), 0.5)


_SAMPLES = st.floats(0.0, 1e6)
_WRITES = st.lists(
    st.one_of(
        _SAMPLES.map(lambda x: ("record", x)),
        st.lists(_SAMPLES, max_size=90).map(lambda xs: ("extend", xs)),
    ),
    max_size=30,
)


@given(st.integers(1, 40), _WRITES)
@example(1, [("extend", []), ("record", 2.0), ("extend", [3.0, 4.0, 5.0]), ("extend", [])])
@example(3, [("extend", [float(i) for i in range(10)])] + [("record", 0.5)] * 7)
@example(7, [("extend", [0.1 * i, 1e6 - i, 3.3]) for i in range(25)])
def test_ring_buffer_matches_deque(capacity, writes):
    w = RollingWindow(capacity)
    ref: deque[float] = deque(maxlen=capacity)
    for kind, value in writes:
        if kind == "record":
            w.record(value)
            ref.append(value)
        else:
            w.extend(value)
            ref.extend(value)
        assert len(w) == len(ref)
        if not ref:
            continue
        arr = np.array(ref)
        assert w.as_array().tolist() == list(ref)
        assert w.mean() == float(arr.mean())
        assert w.stddev() == float(arr.std())
        assert w.as_array().min() == float(arr.min())
        rank = max(0, math.ceil(0.95 * len(arr)) - 1)
        assert nearest_rank(w.as_array(), 0.95) == float(np.sort(arr)[rank])


_SMALL_WRITES = st.lists(
    st.one_of(
        _SAMPLES.map(lambda x: ("record", x)),
        # up to twice the largest capacity, so extends of at least the capacity are common
        st.lists(_SAMPLES, max_size=16).map(lambda xs: ("extend", xs)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), _SMALL_WRITES)
@example(1, [("record", 1.0), ("record", 2.0), ("record", 3.0)])
@example(2, [("record", float(i)) for i in range(9)])
@example(3, [("extend", [1.0, 2.0])] * 5 + [("extend", [4.0, 5.0, 6.0]), ("record", 7.0)])
@example(4, [("extend", [0.5] * 3), ("record", 1e6), ("extend", [9.0] * 9), ("extend", [0.0] * 3)])
def test_contiguous_run_matches_deque_at_small_capacities(capacity, writes):
    # small capacities make the run reach the buffer's end, and move to its
    # front, every few writes
    w = RollingWindow(capacity)
    ref: deque[float] = deque(maxlen=capacity)
    for kind, value in writes:
        before = (w.as_array(), list(ref)) if ref else None
        if kind == "record":
            w.record(value)
            ref.append(value)
        else:
            w.extend(value)
            ref.extend(value)
        if before is not None:
            assert before[0].tolist() == before[1]  # a copy taken earlier never changes
        assert len(w) == len(ref)
        if not ref:
            continue
        arr = np.array(ref)
        assert w.mean().hex() == float(np.mean(arr)).hex()
        assert w.stddev().hex() == float(np.std(arr)).hex()
        assert w.as_array().tolist() == list(ref)
