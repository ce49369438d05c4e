"""Experiment harness: configs, replicated runs, sweeps and CSV output.

Fixed-size experiments loop over plan epochs, replications that share one
plan and take each path's draws at once.  Estimated mode re-plans per object
from the windows its draws extend, so its epochs are one object; oracle mode
plans once, and an epoch draws at most _EPOCH_SAMPLES per path (one object's,
if more), so memory stays O(n).  The runner matches the event engine under
the one-object-at-a-time protocol (each object starts on idle paths, delay
streams continue across objects), as tests check.  Page experiments run the
priority engine.

Seed splitting: path j of an experiment seeds its generator from
numpy SeedSequence([experiment_seed, j]) unless the path spec pins a seed;
sweep point i runs with experiment seed `seed + i`; a baseline run reuses the
candidate's seed so both consume identical delay streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import reduce
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .delay_sources import DelaySourceSpec, make_source, oracle_stats
from .errors import ConfigError, ParseError, ValidationError, read_text, require_count
from .estimation import nearest_rank
from .fec import DEFAULT_GAMMA
from .priority_engine import ORDERINGS, run_page
from .simulator import SCHEDULERS, ParamFeed, SimConfig, make_policy
from .workloads import load_page_spec


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
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if not self.paths:
            raise ConfigError("need at least one path")
        require_count("replications", self.replications, 1)
        if (self.object_size is None) == (self.page_spec is None):
            raise ConfigError("configure exactly one of object_size or page_spec")
        if self.object_size is not None:
            require_count("object_size", self.object_size, 1)
        if self.ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {self.ordering!r}")
        require_count("seed", self.seed, 0)  # numpy SeedSequence entropy
        # SimConfig checks the settings the two classes share (epsilon, gamma, mode...).
        shared = {f.name: getattr(self, f.name) for f in fields(SimConfig)
                  if f.name in self.__dataclass_fields__}
        object.__setattr__(self, "_sim_config", SimConfig(**shared))

    def sim_config(self) -> SimConfig:
        return self._sim_config


@dataclass
class MetricsRow:
    """One result row; improvement columns are filled when a baseline ran."""

    label: str
    mean_delay_ms: float
    p95_delay_ms: float
    redundancy_fraction: float
    improvement_mean_pct: float | None = None
    improvement_p95_pct: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def improvement_pct(baseline_ms: float, candidate_ms: float) -> float:
    """Ratio-minus-one improvement: 100% means the candidate is twice as fast."""
    if not (0 < baseline_ms < math.inf and 0 < candidate_ms < math.inf):  # NaN fails too
        raise ValidationError("improvement needs positive, finite delays")
    return (baseline_ms / candidate_ms - 1.0) * 100.0


_EPOCH_SAMPLES = 1 << 16  # an oracle epoch's draws per path; see the module docstring


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
    """Completion delays for `replications` independent objects, by plan epoch."""
    specs = seeded_paths(config)
    sources = [make_source(s) for s in specs]
    sim_cfg = config.sim_config()
    policy = make_policy(config.scheduler, sim_cfg)
    n = config.object_size
    reps = config.replications
    props = [s.propagation_ms for s in specs]

    feed = ParamFeed(specs, sim_cfg)
    feed.warmup(sources)

    delays = np.empty(reps)
    sent_total = 0
    plan, r = None, 0
    while r < reps:
        if plan is None or feed.windows is not None:
            plan = policy.plan(n, *feed.snapshot([0] * len(specs)))
            rows = 1 if feed.windows is not None else max(1, _EPOCH_SAMPLES // max(plan.counts))
        rows = min(rows, reps - r)
        draws = [src.take(c * rows).reshape(rows, c) for src, c in zip(sources, plan.counts)]
        if plan.redundancy == 0:
            # every packet is needed: completion is the slowest used path's total
            totals = (d.sum(axis=1) + p for d, p in zip(draws, props) if d.size)
            delays[r : r + rows] = reduce(np.maximum, totals)
        else:
            arrivals = np.concatenate([d.cumsum(axis=1) + p for d, p in zip(draws, props)], axis=1)
            arrivals.partition(plan.threshold - 1, axis=1)
            delays[r : r + rows] = arrivals[:, plan.threshold - 1]
        sent_total += sum(plan.counts) * rows
        if feed.windows is not None:
            for win, d in zip(feed.windows, draws):
                win.extend(d[0, 1:])  # first packet of each busy run has no gap
        r += rows
    return delays, (sent_total - n * reps) / (n * reps)


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
            raise ConfigError(f"axis_path {axis_path} out of range")
        target = config.paths[axis_path]
        if target.kind != "gamma":
            raise ConfigError("sigma sweeps need a gamma-distributed path at axis_path")
        paths = list(config.paths)
        paths[axis_path] = replace(target, stddev_ms=float(value))
        return replace(config, paths=tuple(paths))
    if axis == "object_size":
        if config.object_size is None:
            raise ConfigError("object_size sweeps need a fixed-size workload")
        return replace(config, object_size=value)
    if axis == "gamma":
        if config.scheduler != "sos_fec":
            raise ConfigError("gamma sweeps only apply to the sos_fec scheduler")
        return replace(config, gamma=float(value))
    raise ConfigError(f"unknown sweep axis {axis!r} (expected one of {SWEEP_AXES})")


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
        raise ConfigError("sweep needs at least one axis value")
    if baseline is not None and baseline not in SCHEDULERS:
        raise ConfigError(f"unknown baseline scheduler {baseline!r}")
    # Build every point first, so a bad value is refused before any point runs.
    points = [
        replace(_apply_axis(base, axis, value, axis_path), seed=base.seed + i, label="")
        for i, value in enumerate(values)
    ]
    rows = []
    for value, point in zip(values, points):
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
    lines += [",".join(_format_cell(getattr(row, col)) for col in CSV_COLUMNS) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Config file parsing: flat `key = value` lines with repeated [path] sections.
# The keys are the fields of ExperimentConfig (but `paths`) and of DelaySourceSpec.


def _reader(hint) -> tuple[type, bool]:
    """The first of int, float and str that a field's type admits, and whether
    the field names a file (its type admits a Path)."""
    admitted = get_args(hint) or (hint,)
    return next(t for t in (int, float, str) if t in admitted), Path in admitted


_GLOBAL_KEYS = {k: _reader(t) for k, t in get_type_hints(ExperimentConfig).items() if k != "paths"}
_PATH_KEYS = {k: _reader(t) for k, t in get_type_hints(DelaySourceSpec).items()}


def parse_config(path) -> ExperimentConfig:
    """Parse the experiment config grammar (see README for the full format)."""
    path = Path(path)
    text = read_text(path, "config")
    global_kv: dict = {}
    path_blocks: list[dict] = []
    section, keys = global_kv, _GLOBAL_KEYS  # the section being read, and its keys
    key_lines: dict[str, int] = {}  # where each key of the current section was set
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[path]":
            section, keys, key_lines = {}, _PATH_KEYS, {}
            path_blocks.append(section)
            continue
        if "=" not in line:
            raise ParseError(path, line_no, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        if key in key_lines:
            raise ParseError(path, line_no, f"{key!r} is already set on line {key_lines[key]} "
                             "of this section")
        key_lines[key] = line_no
        parse, names_file = keys[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad value for {key}: {exc}") from exc
        if names_file:  # relative to the config file's directory
            parsed = str(path.parent / parsed)
        section[key] = parsed
    if not path_blocks:
        raise ConfigError(f"{path}: no [path] sections")
    try:
        specs = tuple(DelaySourceSpec(**block) for block in path_blocks)
    except (TypeError, ConfigError) as exc:  # no `kind`, or a field its kind refuses
        raise ConfigError(f"{path}: [path] section: {exc}") from exc
    return ExperimentConfig(paths=specs, **global_kv)
