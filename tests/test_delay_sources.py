"""Tests for synthetic and trace-replay delay sources."""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from sosim.delay_sources import (
    DelaySourceSpec,
    GammaSource,
    make_source,
    oracle_stats,
)
from sosim.errors import ConfigError, ParseError
from sosim.harness import ExperimentConfig, run_experiment
from sosim.priority_engine import run_page
from sosim.simulator import SCHEDULERS, SimConfig, run_transfer
from sosim.workloads import random_page


def trace_source(path):
    return make_source(DelaySourceSpec(kind="trace", trace_path=path))


def test_deterministic_source_is_constant():
    src = make_source(DelaySourceSpec(kind="deterministic", mean_ms=10.0))
    assert [src.next_delay() for _ in range(5)] == [10.0] * 5


def test_gamma_moment_matching_parameters():
    src = GammaSource(DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=1.0, seed=1))
    assert src.shape == pytest.approx(100.0)
    assert src.scale == pytest.approx(0.1)


# sha256 of the first 10,000 draws of each (mean, stddev, seed) gamma path,
# recorded with numpy 2.4.6: page_load's two paths and a heavy-tailed one
# (shape 0.0576, numpy's small-shape sampler).
GAMMA_STREAM_PINS = {
    (5.0, 4.0, 1): "b3a82bfe882e9955bf43df01fcb435d76606684f700b68d69a712097794affe8",
    (8.0, 2.0, 2): "b6f203f1e243e77ec04891839134f6b60422d18ed915b08f67433504a9308a3a",
    (12.0, 50.0, 7): "b0f6863c91131b032dbe475bae676ac0b99b710014c4f51f05e8bd46755a9411",
}


@pytest.mark.parametrize("mean, stddev, seed", list(GAMMA_STREAM_PINS))
def test_gamma_stream_is_numpys_pinned_sampler(mean, stddev, seed):
    # A canary for the pinned outcome hashes: if this fails, numpy's gamma
    # sampler itself changed, and the hash tests failing beside it are not
    # engine bugs.
    draws = GammaSource(DelaySourceSpec(kind="gamma", mean_ms=mean, stddev_ms=stddev,
                                        seed=seed)).take(10_000)
    digest = hashlib.sha256(draws.tobytes()).hexdigest()
    assert digest == GAMMA_STREAM_PINS[mean, stddev, seed], (
        f"numpy {np.__version__} draws a different gamma stream than numpy 2.4.6, "
        "which every pinned outcome hash was recorded with; pin failures beside "
        "this one come from numpy's sampler, not from the engine"
    )


def test_gamma_long_run_moments():
    src = GammaSource(DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=2.0, seed=5))
    samples = src.take(1_000_000)
    assert samples.mean() == pytest.approx(10.0, rel=0.01)
    assert samples.std() == pytest.approx(2.0, rel=0.03)


def test_gamma_same_seed_same_sequence():
    spec = DelaySourceSpec(kind="gamma", mean_ms=4.0, stddev_ms=3.0, seed=99)
    a = make_source(spec).take(1000)
    b = make_source(spec).take(1000)
    assert np.array_equal(a, b)


def test_gamma_take_matches_scalar_stream():
    spec = DelaySourceSpec(kind="gamma", mean_ms=4.0, stddev_ms=3.0, seed=7)
    batched = make_source(spec).take(50)
    scalar_src = make_source(spec)
    scalars = [scalar_src.next_delay() for _ in range(50)]
    assert np.allclose(batched, scalars)


def _interleaved_reads(src, total, seed):
    """`total` delays read by a random mix of take(k) and next_delay() calls."""
    rng = np.random.default_rng(seed)
    out: list[float] = []
    while len(out) < total:
        k = min(int(rng.integers(0, 701)), total - len(out))
        if rng.random() < 0.5:
            out.extend(src.take(k).tolist())
        else:
            out.extend(src.next_delay() for _ in range(k))
    return np.array(out)


@pytest.mark.parametrize("mean, stddev", [(2.0, 50.0), (10.0, 0.5)])
@pytest.mark.parametrize("seed", [3, 11])
def test_gamma_mixed_reads_equal_one_draw_bit_for_bit(mean, stddev, seed):
    # Shapes 0.0016 and 400; 20,000 samples span several refills whatever
    # the block size, and the mix never shifts or redraws a sample.
    src = GammaSource(DelaySourceSpec(kind="gamma", mean_ms=mean, stddev_ms=stddev, seed=seed))
    total = 20_000
    reference = np.random.Generator(np.random.PCG64(seed)).gamma(src.shape, src.scale, size=total)
    assert np.array_equal(_interleaved_reads(src, total, seed), reference)


def test_trace_mixed_reads_wrap_bit_for_bit(tmp_path):
    samples = [0.1, 2.0 / 3.0, 7.25, 1e-9, 3.5, 12.0, 0.3]
    f = tmp_path / "t.csv"
    f.write_text("".join(f"{i},{x!r}\n" for i, x in enumerate(samples)))
    total = 3_000
    reference = np.array(samples)[np.arange(total) % len(samples)]
    assert np.array_equal(_interleaved_reads(trace_source(f), total, 5), reference)


def test_deterministic_mixed_reads_are_constant():
    src = make_source(DelaySourceSpec(kind="deterministic", mean_ms=2.0 / 3.0))
    assert np.array_equal(_interleaved_reads(src, 3_000, 5), np.full(3_000, 2.0 / 3.0))


def test_gamma_spec_requires_positive_moments():
    with pytest.raises(ConfigError):
        DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=0.0, seed=1)
    with pytest.raises(ConfigError):
        DelaySourceSpec(kind="gamma", mean_ms=0.0, stddev_ms=1.0, seed=1)


def test_gamma_needs_seed_at_construction():
    with pytest.raises(ConfigError):
        make_source(DelaySourceSpec(kind="gamma", mean_ms=1.0, stddev_ms=1.0))


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        DelaySourceSpec(kind="uniform", mean_ms=1.0)


@pytest.mark.parametrize("field", ["mean_ms", "stddev_ms", "propagation_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_spec_rejected(field, value):
    with pytest.raises(ConfigError):
        DelaySourceSpec(kind="deterministic", **{field: value})


# A spec of each kind that reads all it is given.
READ_IN_FULL = {
    "deterministic": {"mean_ms": 2.0, "propagation_ms": 1.0},
    "gamma": {"mean_ms": 10.0, "stddev_ms": 1.0, "propagation_ms": 1.0, "seed": 5},
    "trace": {"trace_path": "t.csv", "propagation_ms": 1.0},
}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("deterministic", "stddev_ms", 50.0),
        ("deterministic", "seed", 5),
        ("deterministic", "seed", 0),
        ("deterministic", "trace_path", "t.csv"),
        ("trace", "mean_ms", 2.0),
        ("trace", "stddev_ms", 9.0),
        ("trace", "seed", 5),
        ("gamma", "trace_path", "t.csv"),
    ],
)
def test_spec_refuses_a_field_its_kind_never_reads(kind, field, value):
    DelaySourceSpec(kind=kind, **READ_IN_FULL[kind])
    with pytest.raises(ConfigError, match=f"{kind} sources do not read {field}"):
        DelaySourceSpec(kind=kind, **{**READ_IN_FULL[kind], field: value})


@pytest.mark.parametrize(
    "seed, message", [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")]
)
def test_spec_refuses_a_bad_seed(seed, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=1.0, seed=seed)


def test_trace_spec_needs_a_trace_path():
    with pytest.raises(ConfigError, match="trace sources need a trace_path"):
        DelaySourceSpec(kind="trace")


def test_trace_blank_lines_are_skipped(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,1.0\n\n  \n1,2.0\n")
    assert np.array_equal(trace_source(f).take(3), [1.0, 2.0, 1.0])


def test_trace_wraparound(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,2.5\n1,3.0\n")
    src = trace_source(f)
    assert [src.next_delay() for _ in range(3)] == [2.5, 3.0, 2.5]


def test_trace_take_wraps(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,1.0\n1,2.0\n2,3.0\n")
    src = trace_source(f)
    assert np.array_equal(src.take(7), [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0])


def test_trace_header_skipped(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("seq,delay_ms\n0,2.5\n1,3.0\n")
    # two samples, the header not among them
    assert np.array_equal(trace_source(f).take(3), [2.5, 3.0, 2.5])


def test_trace_negative_delay(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,-1.0\n")
    with pytest.raises(ParseError):
        trace_source(f)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_trace_non_finite_delay_reports_number(tmp_path, value):
    f = tmp_path / "t.csv"
    f.write_text(f"0,2.5\n1,{value}\n")
    with pytest.raises(ParseError) as exc:
        trace_source(f)
    assert exc.value.line_no == 2


def test_trace_malformed_line_reports_number(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,2.5\nnot a line\n")
    with pytest.raises(ParseError) as exc:
        trace_source(f)
    assert exc.value.line_no == 2


def test_trace_unparseable_value_reports_number(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("seq,delay_ms\n0,2.5\n1,abc\n")
    with pytest.raises(ParseError) as exc:
        trace_source(f)
    assert exc.value.line_no == 3


def test_trace_empty_file(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("seq,delay_ms\n")
    with pytest.raises(ConfigError):
        trace_source(f)


def test_oracle_stats_deterministic():
    assert oracle_stats(DelaySourceSpec(kind="deterministic", mean_ms=4.0)) == (4.0, 0.0)


def test_oracle_stats_gamma_quantile():
    spec = DelaySourceSpec(kind="gamma", mean_ms=12.0, stddev_ms=1.0, seed=0)
    assert oracle_stats(spec) == (12.0, 1.0)
    # a full window of the source's samples lands near them
    window = make_source(spec).take(5000)
    assert window.mean() == pytest.approx(12.0, abs=0.05)
    assert window.std() == pytest.approx(1.0, abs=0.05)


def test_oracle_stats_trace(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("".join(f"{i},{i + 1}.0\n" for i in range(100)))
    mu, sigma = oracle_stats(DelaySourceSpec(kind="trace", trace_path=f))
    assert mu == pytest.approx(50.5)
    assert sigma == pytest.approx(np.arange(1.0, 101.0).std())


def test_oracle_stats_rereads_trace_files(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,1.0\n1,3.0\n")
    spec = DelaySourceSpec(kind="trace", trace_path=f)
    assert oracle_stats(spec) == (2.0, 1.0)
    f.write_text("0,5.0\n1,9.0\n")
    assert oracle_stats(spec) == (7.0, 2.0)


def _replayed_outcomes(tmp_path):
    """Reprs of every consumer's outcome over deterministic and trace paths.

    The traces are shorter than the reads, so every consumer wraps them;
    some have a header, one has a single sample, and some path sets mix in
    a gamma path.
    """
    rng = np.random.default_rng(77)
    traces = []
    for j, (count, header) in enumerate(((7, True), (13, False), (1, False), (40, True))):
        f = tmp_path / f"replay{j}.csv"
        rows = "".join(f"{i},{float(x)!r}\n" for i, x in enumerate(rng.gamma(2.0, 1.5 + j, count)))
        f.write_text(("seq,delay_ms\n" if header else "") + rows)
        traces.append(str(f))
    page = tmp_path / "page.csv"
    page.write_text("html,6,1,c1,1,t0\nimg,5,0,c2,0,dep:html:2\ncss,4,1,c1,0,dep:html:3\n")

    def det(mean, prop=0.0):
        return DelaySourceSpec(kind="deterministic", mean_ms=mean, propagation_ms=prop)

    def trace(j, prop=0.0):
        return DelaySourceSpec(kind="trace", trace_path=traces[j], propagation_ms=prop)

    gamma = DelaySourceSpec(kind="gamma", mean_ms=4.0, stddev_ms=3.0, propagation_ms=1.0)
    path_sets = [
        (det(2.0 / 3.0), det(5.0, 2.5)),
        (trace(0), trace(1, 7.0)),
        (det(3.0), trace(2)),
        (trace(3, 2.5), gamma),
        (det(1.5), gamma),
        (trace(0),),
        (det(4.0, 1.0), trace(1), gamma),
    ]
    out = []
    for k, specs in enumerate(path_sets):
        seeded = [replace(s, seed=100 * k + j) if s.kind == "gamma" else s
                  for j, s in enumerate(specs)]
        out.append(repr([oracle_stats(s) for s in specs]))
        out += [_interleaved_reads(make_source(s), 500, k).tobytes().hex() for s in seeded]
        for mode in ("oracle", "estimated"):
            for scheduler in SCHEDULERS:
                config = ExperimentConfig(paths=specs, scheduler=scheduler, object_size=15,
                                          replications=20, seed=k, mode=mode,
                                          warmup_packets=30)
                out.append(repr(run_experiment(config)))
            config = replace(config, scheduler=SCHEDULERS[k % 4], object_size=None,
                             page_spec=page, replications=3)
            out.append(repr(run_experiment(config)))
            cfg = SimConfig(ack_return_ms=1.5, mode=mode, warmup_packets=25)
            for scheduler in SCHEDULERS:
                sizes = [int(x) for x in rng.integers(1, 30, size=3)]
                out.append(repr(run_transfer(sizes, scheduler, [make_source(s) for s in seeded],
                                             cfg)))
                for ordering in ("priority", "fifo"):
                    objects = random_page(rng, int(rng.integers(2, 15)),
                                          int(rng.integers(1, 4)), 0.3)
                    out.append(repr(run_page(objects, [make_source(s) for s in seeded], cfg,
                                             scheduler, ordering)))
    return out


def test_replayed_path_outcomes_are_pinned(tmp_path):
    # Recorded before deterministic paths became one-sample traces: every
    # consumer of a replayed path reads the same bits as it did then.
    # Re-recorded when SOS at m >= 3 became the exact n cheapest bound
    # increments: outcomes 231-235, 249 and 252 (the three-path set) moved.
    outcomes = _replayed_outcomes(tmp_path)
    assert len(outcomes) == 259
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "c29b118099c841af2e4a9cf1ed5355ef16ac18d4282f53648dbfc13523faad0d"
