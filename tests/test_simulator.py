"""Tests for the discrete-event engine and its helper operations."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosim.delay_sources import DelaySourceSpec, make_source
from sosim.errors import ConfigError, NoDataError, SosimError, ValidationError
from sosim import harness
from sosim.harness import ExperimentConfig, _delays_fixed_size, seeded_paths
from sosim.scheduler_core import PathParams, d_upper, variance_w
from sosim.workloads import ObjectSpec
from sosim.simulator import (
    LiveObject,
    SCHEDULERS,
    ParamFeed,
    Plan,
    SimConfig,
    Simulation,
    dispatch_order,
    make_policy,
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
    live = LiveObject(ObjectSpec("x", 2), 2, coded=False)
    sim.dispatch(live, Plan((1, 1), 2), (0, 1), 0.0)
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
    live = LiveObject(ObjectSpec("x", 5), 1, coded=False)
    simulation.dispatch(live, Plan((5,), 5), (0,) * 5, 0.0)
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
    with pytest.raises(ConfigError, match="gamma"):
        SimConfig(gamma=gamma)


def test_unknown_mode_and_scheduler_rejected():
    with pytest.raises(ConfigError, match="unknown parameter mode 'x'"):
        SimConfig(mode="x")
    with pytest.raises(ConfigError, match="unknown scheduler 'x'"):
        make_policy("x")


def test_record_of_an_incomplete_object_is_refused():
    live = LiveObject(ObjectSpec("x", 2), 2, coded=False)
    with pytest.raises(SosimError, match="object 'x' never completed"):
        live.record()


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


def per_replication_delays(config):
    """The fixed-size runner as one Python iteration per replication: the
    reference the epoch runner must match bit for bit."""
    specs = seeded_paths(config)
    sources = [make_source(s) for s in specs]
    sim_cfg = config.sim_config()
    policy = make_policy(config.scheduler, sim_cfg)
    n, reps = config.object_size, config.replications
    props = np.array([s.propagation_ms for s in specs])
    feed = ParamFeed(specs, sim_cfg)
    feed.warmup(sources)
    delays = np.empty(reps)
    sent_total = 0
    plan = None
    for r in range(reps):
        if plan is None or config.mode == "estimated":
            params, stddevs = feed.snapshot([0] * len(specs))
            plan = policy.plan(n, params, stddevs)
        draws = [src.take(c) for src, c in zip(sources, plan.counts)]
        if plan.redundancy == 0:
            delays[r] = max(d.sum() + p for d, p in zip(draws, props) if len(d))
        else:
            arrivals = np.concatenate(
                [np.cumsum(d) + p for d, p in zip(draws, props) if len(d)]
            )
            delays[r] = np.partition(arrivals, plan.threshold - 1)[plan.threshold - 1]
        sent_total += sum(plan.counts)
        if feed.windows is not None:
            for win, d in zip(feed.windows, draws):
                if len(d) > 1:
                    win.extend(d[1:])
    return delays, (sent_total - n * reps) / (n * reps)


def runner_paths(kind, tmp_path):
    """Two paths: one of `kind`, and a gamma path with a propagation delay."""
    if kind == "trace":
        f = tmp_path / "t.csv"
        f.write_text("".join(f"{i},{4.0 + (i * 7) % 5}\n" for i in range(23)))
        first = DelaySourceSpec(kind="trace", trace_path=f)
    elif kind == "deterministic":
        first = det(6.0)
    else:
        first = DelaySourceSpec(kind="gamma", mean_ms=5.0, stddev_ms=3.0)
    return (first, DelaySourceSpec(kind="gamma", mean_ms=7.0, stddev_ms=2.0, propagation_ms=3.0))


@pytest.mark.parametrize("epoch", [None, 50])
@pytest.mark.parametrize("mode", ["oracle", "estimated"])
@pytest.mark.parametrize("kind", ["gamma", "trace", "deterministic"])
def test_epoch_runner_matches_the_per_replication_loop(kind, mode, epoch, tmp_path, monkeypatch):
    # An epoch of 50 draws a path makes oracle epochs of a few rows at n = 13
    # and of one row at n = 1000; no replication count is a multiple of them.
    if epoch is not None:
        monkeypatch.setattr(harness, "_EPOCH_SAMPLES", epoch)
    paths = runner_paths(kind, tmp_path)
    for scheduler in SCHEDULERS:
        for n, reps in ((1, 37), (13, 29), (1000, 23 if mode == "estimated" else 251)):
            cfg = ExperimentConfig(paths=paths, scheduler=scheduler, object_size=n,
                                   replications=reps, seed=5, mode=mode,
                                   warmup_packets=300, gamma=0.4)
            fast, fast_red = _delays_fixed_size(cfg)
            slow, slow_red = per_replication_delays(cfg)
            assert np.array_equal(fast, slow), (scheduler, n)
            assert fast_red == slow_red, (scheduler, n)
            if scheduler == "sos_fec" and n == 1000:
                assert fast_red > 0  # a coded plan


@pytest.mark.parametrize("mode", ["oracle", "estimated"])
@pytest.mark.parametrize("scheduler", ["sos", "sos_fec"])
def test_epoch_runner_matches_above_the_epoch_size(scheduler, mode):
    # each path's share of the object is larger than an epoch's draws
    n = 3 * harness._EPOCH_SAMPLES + 7
    cfg = ExperimentConfig(paths=(gam(5, 3), gam(7, 2, prop=3.0, seed=1)), scheduler=scheduler,
                           object_size=n, replications=3, mode=mode, warmup_packets=300)
    fast, fast_red = _delays_fixed_size(cfg)
    slow, slow_red = per_replication_delays(cfg)
    assert np.array_equal(fast, slow)
    assert fast_red == slow_red
    if scheduler == "sos_fec":
        assert fast_red > 0


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


def test_simulation_without_paths_is_a_validation_error():
    # an empty path list is a bad library argument, as it is for solve_integer
    with pytest.raises(ValidationError, match="at least one path"):
        Simulation([])


def test_run_transfer_refuses_fractional_size():
    # sizes are packet counts: 2.7 used to be truncated to 2 packets
    with pytest.raises(ValidationError, match="size_packets must be an integer"):
        run_transfer([2.7], "sos", [make_source(det(5.0))])


# -- dispatch order -------------------------------------------------------------


def heap_dispatch_order(counts, params):
    """Reference: a heap merge of the per-path arrival sequences, popping
    (time, path, k) and pushing each path's next packet as its last is taken."""
    heap = [((p.in_flight + 1) * p.mu_ms + p.prop_ms, j, 1)
            for j, (c, p) in enumerate(zip(counts, params)) if c > 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, j, k = heapq.heappop(heap)
        order.append(j)
        if k < counts[j]:
            p = params[j]
            heapq.heappush(heap, ((p.in_flight + k + 1) * p.mu_ms + p.prop_ms, j, k + 1))
    return tuple(order)


# Integer-valued means and delays make equal arrival times common; -0.0 and
# a zero mean are the corner values of the float keys.
_times = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5]),
                   st.floats(0.0, 20.0, allow_subnormal=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), _times, _times, st.integers(0, 6)),
                min_size=1, max_size=5))
def test_dispatch_order_is_the_heap_merge(paths):
    counts = tuple(c for c, _, _, _ in paths)
    params = [PathParams(mu, 1.0, prop, u) for _, mu, prop, u in paths]
    order = dispatch_order(counts, params)
    assert order == heap_dispatch_order(counts, params)
    assert tuple(order.count(j) for j in range(len(counts))) == counts
