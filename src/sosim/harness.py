"""Experiment harness: configs, replicated runs, sweeps and CSV output.

Fixed-size experiments use a vectorized replication runner that is
behaviorally identical to the event engine under the one-object-at-a-time
protocol (each object starts on idle paths, delay streams continue across
objects); the equivalence is covered by tests.  Page experiments run the
priority engine.

Seed splitting: path j of an experiment seeds its generator from
numpy SeedSequence([experiment_seed, j]) unless the path spec pins a seed;
sweep point i runs with experiment seed `seed + i`; a baseline run reuses the
candidate's seed so both consume identical delay streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .delay_sources import DelaySourceSpec, make_source, oracle_stats
from .errors import ConfigError, DomainError, UsageError, require_count
from .estimation import nearest_rank
from .fec import DEFAULT_GAMMA
from .priority_engine import ORDERINGS, run_page
from .simulator import MODES, SCHEDULERS, ParamFeed, SimConfig, make_policy
from .workloads import load_page_spec

CSV_COLUMNS = (
    "label",
    "mean_delay_ms",
    "p95_delay_ms",
    "redundancy_fraction",
    "improvement_mean_pct",
    "improvement_p95_pct",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scheduler, paths, workload, seed and mode."""

    paths: tuple[DelaySourceSpec, ...]
    scheduler: str = "sos"
    epsilon: float = 0.05
    gamma: float = DEFAULT_GAMMA
    object_size: int | None = None
    page_spec: str | Path | None = None
    replications: int = 1000
    seed: int = 0
    mode: str = "oracle"
    warmup_packets: int = 5000
    ack_return_ms: float = 0.0
    ordering: str = "priority"
    label: str = ""

    def __post_init__(self):
        if self.scheduler not in SCHEDULERS:
            raise UsageError(f"unknown scheduler {self.scheduler!r}")
        if not self.paths:
            raise UsageError("need at least one path")
        require_count("replications", self.replications, 1, UsageError)
        if (self.object_size is None) == (self.page_spec is None):
            raise UsageError("configure exactly one of object_size or page_spec")
        if self.object_size is not None:
            require_count("object_size", self.object_size, 1, UsageError)
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.ordering not in ORDERINGS:
            raise UsageError(f"unknown ordering {self.ordering!r}")
        require_count("warmup_packets", self.warmup_packets, 0, UsageError)
        require_count("seed", self.seed, 0, UsageError)  # numpy SeedSequence entropy

    def sim_config(self) -> SimConfig:
        return SimConfig(
            epsilon=self.epsilon,
            gamma=self.gamma,
            ack_return_ms=self.ack_return_ms,
            mode=self.mode,
            warmup_packets=self.warmup_packets,
        )


@dataclass
class MetricsRow:
    """One result row; improvement columns are filled when a baseline ran."""

    label: str
    mean_delay_ms: float
    p95_delay_ms: float
    redundancy_fraction: float
    improvement_mean_pct: float | None = None
    improvement_p95_pct: float | None = None


def improvement_pct(baseline_ms: float, candidate_ms: float) -> float:
    """Ratio-minus-one improvement: 100% means the candidate is twice as fast."""
    if baseline_ms <= 0 or candidate_ms <= 0:
        raise DomainError("improvement needs positive delays")
    return (baseline_ms / candidate_ms - 1.0) * 100.0


def seeded_paths(config: ExperimentConfig) -> tuple[DelaySourceSpec, ...]:
    """Fill in derived seeds of gamma paths (SeedSequence([seed, path_index]))."""
    out = []
    for j, spec in enumerate(config.paths):
        if spec.kind == "gamma" and spec.seed is None:
            derived = int(np.random.SeedSequence([config.seed, j]).generate_state(1)[0])
            spec = replace(spec, seed=derived)
        out.append(spec)
    return tuple(out)


def _delays_fixed_size(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Completion delays for `replications` independent objects (vectorized)."""
    specs = seeded_paths(config)
    sources = [make_source(s) for s in specs]
    sim_cfg = config.sim_config()
    policy = make_policy(config.scheduler, sim_cfg)
    n = config.object_size
    reps = config.replications
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
            # every packet is needed: completion is the slowest used path's total
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
                    win.extend(d[1:])  # first packet of each busy run has no gap
    redundancy_fraction = (sent_total - n * reps) / (n * reps)
    return delays, redundancy_fraction


def _delays_page(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """DOM completion times over page replications (event engine)."""
    specs = seeded_paths(config)
    sources = [make_source(s) for s in specs]
    page = load_page_spec(config.page_spec)
    sim_cfg = config.sim_config()
    if config.mode == "oracle":
        # The true statistics are the same for every replication; computing
        # them once here spares each run's ParamFeed a trace-file parse.
        priors = tuple(oracle_stats(s) for s in specs)
        sim_cfg = replace(sim_cfg, priors=priors)
    delays = np.empty(config.replications)
    sent = 0
    needed = 0
    for r in range(config.replications):
        records, result = run_page(
            page, sources, sim_cfg, config.scheduler, config.ordering
        )
        delays[r] = result.dom_complete_ms
        sent += sum(sum(rec.sent_per_path) for rec in records)
        needed += sum(spec.size_packets for spec in page)
    return delays, (sent - needed) / needed


def run_experiment(config: ExperimentConfig) -> MetricsRow:
    """Run one experiment; mean and nearest-rank p95 over replications."""
    if config.object_size is not None:
        delays, redundancy = _delays_fixed_size(config)
    else:
        delays, redundancy = _delays_page(config)
    return MetricsRow(
        label=config.label or _default_label(config),
        mean_delay_ms=float(delays.mean()),
        p95_delay_ms=nearest_rank(delays, 0.95),
        redundancy_fraction=float(redundancy),
    )


def _run_paired(config: ExperimentConfig, baseline: str | None = None) -> MetricsRow:
    """Run one experiment; with a baseline scheduler, also run it on the same
    seed (so identical delay streams) and fill in the improvement columns."""
    row = run_experiment(config)
    if baseline is not None:
        ref = run_experiment(replace(config, scheduler=baseline, label=""))
        row.improvement_mean_pct = improvement_pct(ref.mean_delay_ms, row.mean_delay_ms)
        row.improvement_p95_pct = improvement_pct(ref.p95_delay_ms, row.p95_delay_ms)
    return row


def _default_label(config: ExperimentConfig) -> str:
    if config.object_size is not None:
        work = f"n={config.object_size}"
    else:
        work = f"page={Path(config.page_spec).name}"
    return f"{config.scheduler}/{work}/seed={config.seed}"


SWEEP_AXES = ("sigma", "object_size", "gamma")


def _apply_axis(config: ExperimentConfig, axis: str, value, axis_path: int) -> ExperimentConfig:
    if axis == "sigma":
        if not 0 <= axis_path < len(config.paths):
            raise UsageError(f"axis_path {axis_path} out of range")
        target = config.paths[axis_path]
        if target.kind != "gamma":
            raise UsageError("sigma sweeps need a gamma-distributed path at axis_path")
        paths = list(config.paths)
        paths[axis_path] = replace(target, stddev_ms=float(value))
        return replace(config, paths=tuple(paths))
    if axis == "object_size":
        if config.object_size is None:
            raise UsageError("object_size sweeps need a fixed-size workload")
        return replace(config, object_size=value)
    if axis == "gamma":
        if config.scheduler != "sos_fec":
            raise UsageError("gamma sweeps only apply to the sos_fec scheduler")
        return replace(config, gamma=float(value))
    raise UsageError(f"unknown sweep axis {axis!r} (expected one of {SWEEP_AXES})")


def run_sweep(
    base: ExperimentConfig,
    axis: str,
    values,
    baseline: str | None = None,
    axis_path: int = 1,
) -> list[MetricsRow]:
    """One MetricsRow per axis value, optionally compared against a baseline
    scheduler run with identical sources and seeds."""
    values = list(values)
    if not values:
        raise UsageError("sweep needs at least one axis value")
    if baseline is not None and baseline not in SCHEDULERS:
        raise UsageError(f"unknown baseline scheduler {baseline!r}")
    rows = []
    for i, value in enumerate(values):
        point = _apply_axis(base, axis, value, axis_path)
        point = replace(point, seed=base.seed + i, label="")
        row = _run_paired(point, baseline)
        row.label = f"{axis}={value}/{row.label}"
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(rows, out) -> None:
    """Header plus one line per row, >= 6 significant digits on decimals."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                _format_cell(getattr(row, col)) for col in CSV_COLUMNS
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Config file parsing: flat `key = value` lines with repeated [path] sections.

_GLOBAL_KEYS = {
    "scheduler": str,
    "epsilon": float,
    "gamma": float,
    "object_size": int,
    "page_spec": str,
    "replications": int,
    "seed": int,
    "mode": str,
    "warmup_packets": int,
    "ack_return_ms": float,
    "ordering": str,
    "label": str,
}

_PATH_KEYS = {
    "kind": str,
    "mean_ms": float,
    "stddev_ms": float,
    "trace_path": str,
    "propagation_ms": float,
    "seed": int,
}


def parse_config(path) -> ExperimentConfig:
    """Parse the experiment config grammar (see README for the full format)."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    global_kv: dict = {}
    path_blocks: list[dict] = []
    current: dict | None = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[path]":
            current = {}
            path_blocks.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        table = _PATH_KEYS if current is not None else _GLOBAL_KEYS
        if key not in table:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            parsed = table[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from exc
        (current if current is not None else global_kv)[key] = parsed
    if not path_blocks:
        raise ConfigError(f"{path}: no [path] sections")
    try:
        specs = tuple(DelaySourceSpec(**block) for block in path_blocks)
    except TypeError as exc:  # a [path] section without `kind`
        raise ConfigError(f"{path}: [path] section: {exc}") from exc
    return ExperimentConfig(paths=specs, **global_kv)
