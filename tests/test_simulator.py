"""Tests for the discrete-event engine and its helper operations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sosim.delay_sources import DelaySourceSpec, make_source
from sosim.errors import ConfigError, DomainError, NoDataError, ValidationError
from sosim.harness import ExperimentConfig, _delays_fixed_size, seeded_paths
from sosim.scheduler_core import PathParams, d_upper, variance_w
from sosim.workloads import ObjectSpec
from sosim.simulator import (
    LiveObject,
    ParamFeed,
    Plan,
    SimConfig,
    Simulation,
    run_transfer,
)


def det(mean, prop=0.0):
    return DelaySourceSpec(kind="deterministic", mean_ms=mean, propagation_ms=prop)


def gam(mean, std, prop=0.0, seed=0):
    return DelaySourceSpec(
        kind="gamma", mean_ms=mean, stddev_ms=std, propagation_ms=prop, seed=seed
    )


# -- bound ---------------------------------------------------------------------


def test_buffer_size_formula():
    # D_U = 100 across two deterministic paths with means 10 and 20
    paths = [
        PathParams(10.0, 0.0),
        PathParams(20.0, 0.0),
    ]
    assert d_upper((10, 5), paths) == pytest.approx(100.0)


# -- run_transfer ------------------------------------------------------------


def test_serial_deterministic_path():
    rec = run_transfer([3], "sos", [make_source(det(2.0, prop=1.0))])[0]
    assert rec.completion_ms == pytest.approx(7.0)
    assert rec.sent_per_path == (3,)
    assert rec.redundancy == 0


def test_one_packet_per_path_is_max_of_delays():
    # force a (1, 1) split through the engine directly
    sim = Simulation([make_source(det(2.0)), make_source(det(5.0))])
    params = [PathParams(2.0, 0.0), PathParams(5.0, 0.0)]
    live = LiveObject(ObjectSpec("x", 2), 2, coded=False)
    sim.dispatch(live, Plan((1, 1), 2), params, 0.0)
    sim.run()
    assert live.completion_ms == pytest.approx(5.0)


def test_determinism_same_seed_same_records():
    cfg = SimConfig()
    a = run_transfer([20] * 5, "sos", [make_source(gam(3, 2, seed=4)), make_source(gam(5, 1, seed=9))], cfg)
    b = run_transfer([20] * 5, "sos", [make_source(gam(3, 2, seed=4)), make_source(gam(5, 1, seed=9))], cfg)
    assert a == b


def test_completion_never_before_fastest_propagation():
    recs = run_transfer(
        [4] * 10, "sos", [make_source(gam(3, 1, prop=5.0, seed=1)), make_source(gam(4, 1, prop=9.0, seed=2))]
    )
    for r in recs:
        assert r.completion_ms - r.start_ms >= 5.0


def test_objects_serialize_and_streams_continue():
    recs = run_transfer([2, 2], "sos", [make_source(det(3.0))])
    # each object takes 6ms of service; the second starts after the first settles
    assert recs[0].completion_ms == pytest.approx(6.0)
    assert recs[1].completion_ms - recs[1].start_ms == pytest.approx(6.0)
    assert recs[1].start_ms >= recs[0].completion_ms


def test_each_transfer_starts_one_ack_return_after_the_last_delivery():
    # the next object waits for the ACK of the previous one's last packet
    srcs = [make_source(gam(3, 2, prop=1.5, seed=4)), make_source(gam(5, 1, seed=9))]
    recs = run_transfer([7, 1, 12, 3], "sos", srcs, SimConfig(ack_return_ms=10.0))
    assert recs[0].start_ms == 0.0
    for prev, rec in zip(recs, recs[1:]):
        assert rec.start_ms == prev.completion_ms + 10.0


def test_estimated_mode_records_gaps():
    src = make_source(det(3.0))
    cfg = SimConfig(mode="estimated", warmup_packets=0)
    simulation = Simulation([src], cfg)
    feed_params = [PathParams(3.0, 0.0)]
    live = LiveObject(ObjectSpec("x", 5), 1, coded=False)
    simulation.dispatch(live, Plan((5,), 5), feed_params, 0.0)
    simulation.run()
    # 5 services, first of the busy run unrecorded
    assert simulation.feed.windows[0].as_array().tolist() == [3.0, 3.0, 3.0, 3.0]


def test_estimated_cold_start_without_priors_raises():
    cfg = SimConfig(mode="estimated", warmup_packets=0)
    with pytest.raises(NoDataError):
        run_transfer([5], "sos", [make_source(gam(10, 1, seed=1))], cfg)
    feed = ParamFeed([gam(10, 1)], cfg)  # empty windows
    with pytest.raises(NoDataError):
        feed.snapshot([0])


def test_estimated_cold_start_uses_priors():
    priors = ((4.0, 1.0), (9.0, 2.0))
    cfg = SimConfig(mode="estimated", priors=priors)
    feed = ParamFeed([gam(10, 1), gam(12, 5)], cfg)
    feed.windows[0].extend([5.0, 7.0])
    params, stddevs = feed.snapshot([0, 2])
    # path 0 comes from its window, path 1 from its prior
    assert (params[0].mu_ms, params[0].w) == (6.0, variance_w(0.025, 1.0))
    assert (params[1].mu_ms, params[1].w) == (9.0, variance_w(0.025, 2.0))
    assert params[1].in_flight == 2
    assert stddevs == [1.0, 2.0]
    # the first object is planned from the priors, later ones from the windows
    sources = [make_source(gam(10, 1, seed=4)), make_source(gam(12, 5, seed=5))]
    assert len(run_transfer([20, 20], "sos", sources, cfg)) == 2


@pytest.mark.parametrize("mode", ["oracle", "estimated"])
def test_priors_four_tuple_reads_first_and_last(mode):
    specs = [gam(10, 1, prop=3.0), det(4.0)]
    pairs = SimConfig(mode=mode, priors=((10.0, 1.5), (4.0, 0.0)))
    quads = SimConfig(mode=mode, priors=((10.0, 2.0, 99.0, 1.5), (4.0, 4.0, 4.0, 0.0)))
    assert quads.priors == pairs.priors
    assert ParamFeed(specs, quads).snapshot([1, 0]) == ParamFeed(specs, pairs).snapshot([1, 0])


@pytest.mark.parametrize(
    "prior",
    [
        (1.0,),
        (1.0, 2.0, 3.0),
        (1.0, 2.0, 3.0, 4.0, 5.0),
        5.0,
        (math.nan, 1.0),
        (1.0, math.nan),
        (math.inf, 1.0),
        (1.0, math.inf),
        (-1.0, 1.0),
        (1.0, -0.5),
        (math.nan, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, -1.0),
    ],
    ids=repr,
)
def test_bad_prior_rejected_at_config(prior):
    with pytest.raises(ConfigError):
        SimConfig(priors=((2.0, 1.0), prior))


@pytest.mark.parametrize("ack", [math.nan, math.inf, -1.0])
def test_bad_ack_return_rejected_at_config(ack):
    with pytest.raises(ConfigError, match="ack_return_ms"):
        SimConfig(ack_return_ms=ack)


@pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan])
def test_gamma_outside_unit_interval_rejected_at_config(gamma):
    with pytest.raises(DomainError, match="gamma"):
        SimConfig(gamma=gamma)


def test_priors_must_match_the_path_count():
    with pytest.raises(ConfigError, match="one prior tuple per path"):
        ParamFeed([det(2.0), det(3.0)], SimConfig(priors=((2.0, 1.0),)))


def test_negative_warmup_rejected_at_config():
    with pytest.raises(ConfigError, match="warmup_packets"):
        SimConfig(mode="estimated", warmup_packets=-7)


@pytest.mark.parametrize(
    "field, value",
    [("warmup_packets", 2.5), ("warmup_packets", "3"), ("window_capacity", 2.5),
     ("window_capacity", 0), ("window_capacity", None)],
)
def test_count_fields_must_be_integers_at_config(field, value):
    with pytest.raises(ConfigError, match=field):
        SimConfig(mode="estimated", **{field: value})


def test_count_fields_accept_numpy_integers():
    config = SimConfig(mode="estimated", warmup_packets=np.int64(3), window_capacity=np.int32(4))
    window = Simulation([make_source(gam(5.0, 1.0, seed=1))], config).feed.windows[0]
    assert len(window) == 2 and window.capacity == 4  # the first warm-up draw has no gap


def test_estimated_mode_never_reads_oracle_stats(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimated mode read the true statistics")

    monkeypatch.setattr("sosim.simulator.oracle_stats", refuse)
    cfg = ExperimentConfig(paths=(gam(5, 3), gam(7, 1)), object_size=10,
                           replications=3, mode="estimated", warmup_packets=50)
    delays, _ = _delays_fixed_size(cfg)
    assert len(delays) == 3


def test_fec_transfer_sends_redundancy_and_completes_at_threshold():
    sources = [make_source(gam(10, 30, seed=3)), make_source(gam(12, 1, seed=8))]
    cfg = SimConfig(gamma=0.0)
    recs = run_transfer([50] * 5, "sos_fec", sources, cfg)
    for r in recs:
        assert sum(r.sent_per_path) == 50 + r.redundancy
        assert r.redundancy >= 0


def test_engine_matches_vectorized_runner():
    for scheduler in ("sos", "sos_fec", "edf", "sedpf"):
        for mode in ("oracle", "estimated"):
            cfg = ExperimentConfig(
                paths=(gam(5, 3, prop=0.0), gam(7, 1, prop=3.0)),
                scheduler=scheduler,
                object_size=13,
                replications=25,
                seed=6,
                mode=mode,
                warmup_packets=100,
                gamma=0.4,
            )
            fast, _ = _delays_fixed_size(cfg)
            recs = run_transfer(
                [13] * 25,
                scheduler,
                [make_source(s) for s in seeded_paths(cfg)],
                cfg.sim_config(),
            )
            slow = np.array([r.completion_ms - r.start_ms for r in recs])
            assert np.allclose(fast, slow, rtol=1e-9), (scheduler, mode)


def test_trace_sources_drive_the_engine(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("".join(f"{i},{2.0 + (i % 3)}\n" for i in range(10)))
    spec = DelaySourceSpec(kind="trace", trace_path=f, propagation_ms=1.0)
    recs = run_transfer([8] * 4, "sos", [make_source(spec)])
    # 32 packets over a 10-sample trace exercises wrap-around; the trace holds
    # 2,3,4,2,3,4,2,3,4,2 so object 0 consumes 23ms of service, object 1 24ms
    assert len(recs) == 4
    assert all(r.sent_per_path == (8,) for r in recs)
    durations = [r.completion_ms - r.start_ms for r in recs]
    assert durations[0] == pytest.approx(23.0 + 1.0)
    assert durations[1] == pytest.approx(24.0 + 1.0)
    rerun = run_transfer([8] * 4, "sos", [make_source(spec)])
    assert [r.completion_ms for r in rerun] == [r.completion_ms for r in recs]


def test_run_transfer_rejects_empty_sources():
    with pytest.raises(Exception):
        run_transfer([3], "sos", [])


def test_run_transfer_refuses_fractional_size():
    # sizes are packet counts: 2.7 used to be truncated to 2 packets
    with pytest.raises(ValidationError, match="integer size_packets"):
        run_transfer([2.7], "sos", [make_source(det(5.0))])
