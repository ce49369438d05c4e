"""The benchmark's three workloads: inputs from a seed, the op, its checks.

Each workload is a closed loop over *passes*.  A pass is a stratified batch
of op inputs generated from (workload seed, pass index), so every pass has
the same mix of sizes and schedulers while the values inside each stratum
change from pass to pass.  Runs always end on a pass boundary, which keeps
the mix of cheap and expensive ops equal across runs and seeds.

An op calls one public entry point of sosim; `check` raises `CheckFailed`
when an invariant of its result fails, and `digest` gives canonical bytes
of the result for comparison with the recorded reference.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.stats

from sosim import (
    DelaySourceSpec,
    ExperimentConfig,
    SimConfig,
    make_policy,
    make_source,
    random_page,
    run_experiment,
    run_page,
    write_csv,
)
from sosim.simulator import ParamFeed

SCHEDULERS = ("sos", "sos_fec", "edf", "sedpf")
WARMUP_PASS = 2**32 - 1  # pass index reserved for warm-up inputs


def _rng(seed: int, tag: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, pass_index]))


class CheckFailed(Exception):
    """An op returned a result that breaks one of its invariants."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _positive_finite(x: float) -> bool:
    return math.isfinite(x) and x > 0


class FixedEstimated:
    """Op = one estimated-mode `run_experiment` cell of the paper's σ sweep."""

    name = "fixed_estimated"
    root = "harness.run_experiment"
    tag = 1
    sigmas = (1.0, 5.0, 10.0, 20.0, 50.0)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.replications = 2 if tiny else 50
        self.warmup_packets = 200 if tiny else 5000
        sizes = (10, 100) if tiny else (10, 100, 1000)
        self.cells = [
            (sched, n, sigma)
            for sched in SCHEDULERS
            for n in (sizes[:2] if sched == "sedpf" else sizes)
            for sigma in self.sigmas
        ]

    def _config(self, sched, n, sigma, seed, replications):
        return ExperimentConfig(
            paths=(
                DelaySourceSpec(kind="gamma", mean_ms=10.0, stddev_ms=1.0),
                DelaySourceSpec(kind="gamma", mean_ms=12.0, stddev_ms=sigma),
            ),
            scheduler=sched,
            object_size=n,
            replications=replications,
            seed=seed,
            mode="estimated",
            warmup_packets=self.warmup_packets,
        )

    def pass_inputs(self, pass_index: int) -> list:
        seeds = _rng(self.seed, self.tag, pass_index).integers(0, 2**31, len(self.cells))
        return [
            self._config(sched, n, sigma, int(s), self.replications)
            for (sched, n, sigma), s in zip(self.cells, seeds)
        ]

    def warmup_inputs(self) -> list:
        return [self._config(sched, 10, 5.0, 0, 2) for sched in SCHEDULERS]

    def op(self, config):
        return run_experiment(config)

    def check(self, config, row) -> None:
        _require(_positive_finite(row.mean_delay_ms), f"mean delay {row.mean_delay_ms}")
        _require(_positive_finite(row.p95_delay_ms), f"p95 delay {row.p95_delay_ms}")
        if config.scheduler == "sos_fec":
            _require(row.redundancy_fraction >= 0, "negative redundancy")
        else:
            _require(row.redundancy_fraction == 0, "redundancy without FEC")

    def digest(self, config, row) -> bytes:
        out = io.StringIO()
        write_csv([row], out)
        return out.getvalue().encode()


# How often `run_page` handed ParamFeed.snapshot each per-path backlog
# (packets dispatched, not yet delivered): index = backlog, value = count.
# Measured with `page_load_backlogs(1, 4)`, the first four passes of
# page_load at seed 1 (34,700 path snapshots); perfbench/tests check it.
PAGE_BACKLOG_COUNTS = (
    2912, 4146, 5846, 1375, 1234, 1448, 1652, 1687, 1590, 1347,
    1143, 1173, 958, 922, 1024, 734, 715, 537, 666, 489,
    359, 390, 330, 278, 252, 198, 193, 168, 135, 109,
    92, 84, 85, 43, 55, 53, 41, 28, 28, 29,
    25, 14, 15, 15, 18, 13, 4, 3, 11, 6,
    4, 3, 4, 2, 4, 6, 3, 1, 0, 1,
)


class PlanManypath:
    """Op = one `make_policy(s).plan(n, params, stddevs)` decision, m >= 3 paths.

    Strata per pass: scheduler x path count x five log-width bands of n over
    [10, 1000], so n is log-uniform and m=16 with n near 1000 occurs in
    every pass.

    Path parameters come from the repo's own experiments: gamma paths with
    mean U(2, 20) ms and stddev uniform from 0.5 ms (acceptance criterion
    08) up to 50 ms (the top of the paper's sigma sweep); no propagation
    delay, as in both; and per-path backlogs drawn from what page_load's
    engine passes to `ParamFeed.snapshot` (`PAGE_BACKLOG_COUNTS`).
    """

    name = "plan_manypath"
    root = "simulator.Policy.plan"
    tag = 2
    path_counts = (3, 4, 6, 8, 12, 16)
    bands = 5
    backlog_cdf = np.cumsum(PAGE_BACKLOG_COUNTS) / sum(PAGE_BACKLOG_COUNTS)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.path_counts = (3, 4) if tiny else self.path_counts
        self.n_max = 40 if tiny else 1000
        self.config = SimConfig()
        self.policies = {s: make_policy(s, self.config) for s in SCHEDULERS}

    def _decision(self, rng, sched, m, n):
        mean = rng.uniform(2.0, 20.0, m)
        std = rng.uniform(0.5, 50.0, m)
        backlog = np.searchsorted(self.backlog_cdf, rng.uniform(size=m), side="right")
        # Same population statistics as delay_sources.oracle_stats, vectorized.
        shape, scale = (mean / std) ** 2, std**2 / mean
        lo = scipy.stats.gamma.ppf(1.0 / (self.config.window_capacity + 1), shape, scale=scale)
        hi = scipy.stats.gamma.ppf(0.95, shape, scale=scale)
        specs = [
            DelaySourceSpec(kind="gamma", mean_ms=float(mu), stddev_ms=float(sd))
            for mu, sd in zip(mean, std)
        ]
        priors = tuple(
            (float(mu), float(a), float(b), float(sd))
            for mu, a, b, sd in zip(mean, lo, hi, std)
        )
        feed = ParamFeed(specs, SimConfig(priors=priors))
        params, stddevs = feed.snapshot([int(u) for u in backlog])
        return sched, n, params, stddevs

    def pass_inputs(self, pass_index: int) -> list:
        rng = _rng(self.seed, self.tag, pass_index)
        width = math.log(self.n_max / 10) / self.bands
        out = []
        for sched in SCHEDULERS:
            for m in self.path_counts:
                for band in range(self.bands):
                    n = round(math.exp(math.log(10) + width * (band + rng.uniform())))
                    out.append(self._decision(rng, sched, m, min(max(n, 10), self.n_max)))
        return [out[i] for i in rng.permutation(len(out))]

    def warmup_inputs(self) -> list:
        rng = _rng(self.seed, self.tag, WARMUP_PASS)
        return [self._decision(rng, sched, 3, 10) for sched in SCHEDULERS]

    def op(self, decision):
        sched, n, params, stddevs = decision
        return self.policies[sched].plan(n, params, stddevs)

    def check(self, decision, plan) -> None:
        sched, n, params, _ = decision
        m = len(params)
        _require(len(plan.counts) == m, "one count per path")
        _require(min(plan.counts) >= 0, "negative count")
        _require(plan.threshold == n, f"threshold {plan.threshold} != n {n}")
        if sched == "sos_fec":
            _require(sum(plan.base_counts) == n, "base split does not sum to n")
            _require(
                all(t >= b for t, b in zip(plan.counts, plan.base_counts)),
                "FEC totals below base",
            )
        else:
            _require(sum(plan.counts) == n, "split does not sum to n")
        if plan.order is not None:
            _require(len(plan.order) == n, "order length")
            _require(
                tuple(plan.order.count(j) for j in range(m)) == plan.counts,
                "order disagrees with counts",
            )

    def digest(self, decision, plan) -> bytes:
        return repr((plan.counts, plan.threshold, plan.base_counts, plan.order)).encode()


class PageLoad:
    """Op = one oracle-mode `run_page` on a `random_page` graph.

    Graphs follow acceptance criterion 09: 3-50 objects, 1-10 connections,
    DOM fraction 0.1-0.4; every graph runs under all four combinations of
    scheduler {sos, sos_fec} and ordering {priority, fifo}.
    """

    name = "page_load"
    root = "priority_engine.run_page"
    tag = 3
    graphs_per_pass = 25
    combos = tuple((s, o) for s in ("sos", "sos_fec") for o in ("priority", "fifo"))

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.max_objects = 8 if tiny else 50
        self.config = SimConfig()

    def _pages(self, rng, count, max_objects):
        out = []
        for _ in range(count):
            page = random_page(
                rng,
                n_objects=int(rng.integers(3, max_objects + 1)),
                n_connections=int(rng.integers(1, 11)),
                dom_fraction=float(rng.uniform(0.1, 0.4)),
            )
            seeds = tuple(int(s) for s in rng.integers(0, 2**31, 2))
            out.extend((page, seeds, sched, order) for sched, order in self.combos)
        return out

    def pass_inputs(self, pass_index: int) -> list:
        rng = _rng(self.seed, self.tag, pass_index)
        out = self._pages(rng, self.graphs_per_pass, self.max_objects)
        return [out[i] for i in rng.permutation(len(out))]

    def warmup_inputs(self) -> list:
        return self._pages(_rng(self.seed, self.tag, WARMUP_PASS), 1, 5)

    def op(self, page_input):
        page, (seed0, seed1), sched, order = page_input
        # Sources are stateful streams: build them inside the op so that
        # replaying an input (as the traced run does) reproduces its result.
        sources = [
            make_source(DelaySourceSpec(kind="gamma", mean_ms=5.0, stddev_ms=4.0, seed=seed0)),
            make_source(DelaySourceSpec(kind="gamma", mean_ms=8.0, stddev_ms=2.0, seed=seed1)),
        ]
        return run_page(page, sources, self.config, sched, order)

    def check(self, page_input, outcome) -> None:
        records, result = outcome
        _require(result.dom_complete_ms <= result.page_complete_ms, "DOM after page")
        _require(_positive_finite(result.dom_complete_ms), "DOM completion")
        _require(bool(records), "no records")
        for rec in records:
            _require(
                math.isfinite(rec.completion_ms) and rec.completion_ms > rec.start_ms,
                f"object {rec.object_id} delay",
            )
            _require(
                min(rec.sent_per_path) >= 0 and rec.redundancy >= 0,
                f"object {rec.object_id} counts",
            )

    def digest(self, page_input, outcome) -> bytes:
        records, result = outcome
        return repr((records, result)).encode()


WORKLOADS = {cls.name: cls for cls in (FixedEstimated, PlanManypath, PageLoad)}


def page_load_backlogs(seed: int, passes: int) -> tuple[int, ...]:
    """Histogram of the per-path backlogs page_load's runs pass to
    `ParamFeed.snapshot` over its first `passes` passes (the basis of
    `PAGE_BACKLOG_COUNTS`)."""
    seen: list[int] = []
    original = ParamFeed.snapshot

    def snapshot(feed, in_flight):
        seen.extend(int(u) for u in in_flight)
        return original(feed, in_flight)

    case = PageLoad(seed)
    ParamFeed.snapshot = snapshot
    try:
        for p in range(passes):
            for item in case.pass_inputs(p):
                case.op(item)
    finally:
        ParamFeed.snapshot = original
    return tuple(int(c) for c in np.bincount(seen))
