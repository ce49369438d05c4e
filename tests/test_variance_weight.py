"""Regression tests for the variability weight of measured paths.

The weight w used to be Hoeffding's form with b = the 95th percentile of the
delays.  A gamma delay has no upper bound, and for very variable gamma paths
the p95 shrinks as sigma grows, so w stopped growing (65.74 at sigma 20,
65.15 at sigma 50) and the SOS split overshot its own bound more often than
epsilon.  Measured paths now use the variance weight sigma*sqrt(2 ln(1/eps_j)).
"""

from __future__ import annotations

import pytest
import scipy.stats

from sosim.delay_sources import DelaySourceSpec, make_source
from sosim.estimation import RollingWindow, snapshot_params
from sosim.scheduler_core import d_upper
from sosim.simulator import ParamFeed, SimConfig, make_policy

EPSILON = 0.05


def gamma_path(mean, std, seed=0):
    return DelaySourceSpec(kind="gamma", mean_ms=mean, stddev_ms=std, seed=seed)


def test_weight_grows_with_sigma_oracle():
    cfg = SimConfig(epsilon=EPSILON)
    ws = []
    for sigma in (20.0, 50.0):
        params, _ = ParamFeed([gamma_path(10.0, sigma), gamma_path(12.0, 1.0)], cfg).snapshot(
            [0, 0]
        )
        ws.append(params[0].w)
    assert ws[1] > ws[0]


def test_weight_grows_with_sigma_estimated():
    ws = []
    for sigma in (20.0, 50.0):
        window = RollingWindow(5000)
        window.extend(make_source(gamma_path(10.0, sigma, seed=7)).take(5000))
        ws.append(snapshot_params(window, EPSILON / 2).w)
    assert ws[1] > ws[0]


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_sos_exceeds_its_bound_at_most_epsilon(n):
    # Acceptance criterion 06's sigma=50 cells: variable fast path gamma(10, 50)
    # next to gamma(12, 1), oracle parameters, no backlog or propagation.  A
    # path's completion is the sum of its packets' gamma delays, itself gamma
    # with the shape scaled by the packet count, so P(completion > d_upper)
    # is exact.
    specs = [gamma_path(10.0, 50.0), gamma_path(12.0, 1.0)]
    params, stddevs = ParamFeed(specs, SimConfig(epsilon=EPSILON)).snapshot([0, 0])
    counts = make_policy("sos").plan(n, params, stddevs).counts
    bound = d_upper(counts, params)
    p_within = 1.0
    for spec, count in zip(specs, counts):
        if count:
            shape = (spec.mean_ms / spec.stddev_ms) ** 2 * count
            p_within *= scipy.stats.gamma.cdf(bound, shape, scale=spec.stddev_ms**2 / spec.mean_ms)
    assert 1.0 - p_within <= EPSILON
