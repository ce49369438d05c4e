"""Tests for the redundancy (any-n-of-n-plus-delta) scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from sosim.errors import DomainError
from sosim.fec import solve_fec_split
from sosim.scheduler_core import PathParams, solve_integer


def path(mu, w, prop=0.0):
    return PathParams(mu_ms=mu, w=w, prop_ms=prop)


# a wildly variable fast path next to a stable slower one
WILD_PLUS_STABLE = [path(10.0, 118.0), path(12.0, 7.0)]


def test_gamma_one_is_plain_split():
    alloc = solve_fec_split(100, WILD_PLUS_STABLE, gamma=1.0)
    assert alloc.totals == alloc.base
    assert alloc.redundancy == 0
    assert alloc.base == solve_integer(100, WILD_PLUS_STABLE)


def test_zero_variability_means_zero_redundancy():
    paths = [path(2.0, 0.0), path(3.0, 0.0)]
    for gamma in (0.0, 0.4, 0.9):
        assert solve_fec_split(50, paths, gamma).redundancy == 0


def test_gamma_out_of_range():
    with pytest.raises(DomainError):
        solve_fec_split(10, WILD_PLUS_STABLE, gamma=1.5)
    with pytest.raises(DomainError):
        solve_fec_split(10, WILD_PLUS_STABLE, gamma=-0.1)


def test_redundancy_grows_as_gamma_falls():
    reds = [solve_fec_split(100, WILD_PLUS_STABLE, g).redundancy for g in (0.0, 0.5, 1.0)]
    assert reds[0] >= reds[1] >= reds[2] == 0
    assert reds[0] > 0


def test_deltas_nonnegative_random():
    rng = np.random.default_rng(17)
    for _ in range(400):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 150))
        gamma = float(rng.uniform(0, 1))
        paths = [
            PathParams(
                float(rng.uniform(0.1, 50)), float(rng.uniform(0, 80)),
                prop_ms=float(rng.uniform(0, 20)),
            )
            for _ in range(m)
        ]
        alloc = solve_fec_split(n, paths, gamma)  # constructor asserts deltas >= 0
        deltas = [t - c for t, c in zip(alloc.totals, alloc.base)]
        assert all(d >= 0 for d in deltas)
        assert alloc.redundancy == sum(deltas)


def test_per_path_resolve_matches_direct_solve():
    # totals[i] must equal the i-th entry of the split solved with w_i discounted
    from dataclasses import replace

    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        gamma = float(rng.uniform(0, 0.99))
        paths = [
            PathParams(float(rng.uniform(0.5, 20)), float(rng.uniform(0, 40)))
            for _ in range(2)
        ]
        alloc = solve_fec_split(n, paths, gamma)
        for i in range(2):
            discounted = list(paths)
            discounted[i] = replace(paths[i], w=gamma * paths[i].w)
            assert alloc.totals[i] == solve_integer(n, discounted)[i]


def test_decode_threshold_without_redundancy():
    alloc = solve_fec_split(30, [path(2.0, 0.0), path(2.0, 0.0)], gamma=0.3)
    assert sum(alloc.base) == 30 == sum(alloc.totals)
