"""Runs one workload and computes the benchmark's metrics.

Untraced runs give the end-to-end metrics.  Traced runs replay a fixed
prefix of the workload's ops twice, untraced then with every layer wrapper
installed, and give the per-layer metrics; their counts are exact and repeat
for a given seed.

Measurement is process-level only: `time.perf_counter` around each op and
`getrusage(RUSAGE_SELF).ru_maxrss`.  Machine-wide tracing and machine
settings are out of reach in a shared container, so other tenants' load
shows up as run-to-run spread; runs are long and metrics are medians or
whole-run totals to absorb it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from cases import CheckFailed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
MIN_OPS = 100  # at least 10 samples lie beyond op_ms_p90
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer spans and the fields reported for each, as listed for the
# benchmark: `s` is inclusive time, `self_s` excludes traced children.
SPAN_FIELDS = {
    "harness.run_experiment": ("calls", "self_s"),
    "simulator.ParamFeed.__init__": ("calls", "s"),
    "simulator.ParamFeed.snapshot": ("calls", "self_s"),
    "simulator.Simulation.step": ("calls", "self_s"),
    "simulator.Simulation.dispatch": ("calls", "self_s"),
    "simulator.Simulation.pull_unserved": ("calls",),
    "priority_engine.run_page": ("calls", "self_s"),
    "workloads.ObjectQueue.next_ready_object": ("calls", "s"),
    "scheduler_core.solve_integer": ("calls", "self_s"),
    "scheduler_core.solve_relaxed": ("calls", "s"),
    "fec.solve_fec_split": ("calls", "self_s"),
    "baselines.edf_assign": ("calls", "s"),
    "baselines.sedpf_assign": ("calls", "s"),
    "estimation.RollingWindow.as_array": ("calls", "s"),
    "estimation.RollingWindow.record": ("calls", "s"),
    "estimation.RollingWindow.extend": ("calls", "s"),
    "estimation.snapshot_params": ("calls", "s"),
    "delay_sources.GammaSource.take": ("calls", "s"),
    "delay_sources.oracle_stats": ("calls", "s"),
}
COUNTS = (
    "scheduler_core.d_upper_evals",
    "fec.redundancy_pkts",
    "baselines.clark_max.calls",
    "simulator.Simulation.pull_unserved.packets",
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# The per-layer metrics of the final result line: every exact count and
# ratio, plus the times that are nonzero on all three workloads.  The other
# times are printed and saved, but stay out of the result line: a layer that
# a workload bypasses reads exactly 0 s on every run, and the benchmark
# format refuses a time that reads the same on every run.
PER_LAYER = tuple(
    f"{name}.calls" for name in SPAN_FIELDS
) + COUNTS + (
    "estimation.as_array_per_snapshot_params",
    "scheduler_core.d_upper_evals_per_solve",
    "scheduler_core.solve_integer.self_s",
    "fec.solve_fec_split.self_s",
    "trace.traced_s",
    "trace.overhead_s",
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "measurement": "process-level only (time.perf_counter, ru_maxrss); "
        "no machine-wide tracing",
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Wall time of `import sosim` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sosim"], env=env, cwd=ROOT, check=True, timeout=120
    )
    return time.perf_counter() - t0


def _short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def execute(case, inputs, digests=None, tracer=None, first_op=0):
    """Run ops in order; returns (per-op seconds, ops that failed).

    An op fails when it raises or its result breaks an invariant.  When
    `digests` is a list, a short hash of each op's result is appended (None
    for a failed op).
    """
    times = []
    failed = 0
    for k, item in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = case.op(item)
            else:
                with tracer.op(case.root, first_op + k):
                    out = case.op(item)
        except Exception:  # an op that raises is a failed op; the run goes on
            times.append(time.perf_counter() - t0)
            failed += 1
            traceback.print_exc(file=sys.stderr)
            if digests is not None:
                digests.append(None)
            continue
        times.append(time.perf_counter() - t0)
        try:
            case.check(item, out)
        except CheckFailed as exc:
            failed += 1
            print(f"perfbench: {case.name} op {first_op + k}: {exc}", file=sys.stderr)
            out = None  # a failed op has no digest
        if digests is not None:
            digests.append(None if out is None else _short_hash(case.digest(item, out)))
    return times, failed


def prefix_passes(pass_len: int) -> int:
    """Whole passes covering at least MIN_OPS ops: the digested, traced prefix."""
    return math.ceil(MIN_OPS / pass_len)


def prefix_inputs(case) -> list:
    inputs = case.pass_inputs(0)
    for p in range(1, prefix_passes(len(inputs))):
        inputs = inputs + case.pass_inputs(p)
    return inputs


def reference_mismatches(name: str, seed: int, tiny: bool, digests: list) -> int:
    """Ops whose result differs from the reference recorded for the default seed.

    Failed ops (digest None) are already counted.
    """
    if seed != DEFAULT_SEED or tiny:
        return 0
    reference = json.loads((HERE / "reference.json").read_text())[name]
    wrong = sum(a is not None and a != b for a, b in zip(digests, reference))
    return wrong + abs(len(digests) - len(reference))


def run_untraced(case_cls, seed: int, seconds: float, tiny: bool = False) -> dict:
    """End-to-end metrics of a closed loop of whole passes lasting >= `seconds`."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    prepares = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        case = case_cls(seed, tiny)
        first = case.pass_inputs(0)
        execute(case, case.warmup_inputs())
        prepares.append(time.perf_counter() - t0)

    n_prefix = prefix_passes(len(first))
    times, failed, digests = [], 0, []
    p = 0
    while p < n_prefix or sum(times) < seconds:
        inputs = first if p == 0 else case.pass_inputs(p)
        t, f = execute(case, inputs, digests if p < n_prefix else None, first_op=len(times))
        times += t
        failed += f
        p += 1
    failed += reference_mismatches(case.name, seed, tiny, digests)

    wall = sum(times)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(prepares),
        "ops_per_s": (len(times) - failed) / wall,
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    result["failed_frac"] = (failed / len(times), "ratio")
    return {
        "attempted": len(times),
        "failed": failed,
        "passes": p,
        "metrics": result,
        "digest": _short_hash("".join(map(str, digests)).encode()),
    }


def layer_metrics(summary: dict, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric: name -> (value, unit)."""
    out = {}
    spans = summary["spans"]
    for name, fields in SPAN_FIELDS.items():
        calls, incl, own = spans.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": incl, "self_s": own}
        for field in fields:
            out[f"{name}.{field}"] = (values[field], UNITS[field])
    for key in COUNTS:
        out[key] = (summary["counts"].get(key, 0), "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["estimation.as_array_per_snapshot_params"] = (
        ratio(out["estimation.RollingWindow.as_array.calls"][0],
              out["estimation.snapshot_params.calls"][0]),
        "ratio",
    )
    out["scheduler_core.d_upper_evals_per_solve"] = (
        ratio(out["scheduler_core.d_upper_evals"][0],
              out["scheduler_core.solve_integer.calls"][0]),
        "ratio",
    )
    root = summary["root_wall_s"]
    for layer, own in summary["layer_self_s"].items():
        out[f"share.{layer}"] = (ratio(own, root), "fraction")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.spans"] = (summary["n_spans"], "count")
    return out


def run_traced(case_cls, seed: int, tiny: bool = False, spans_path=None) -> dict:
    """Per-layer metrics from the fixed prefix, run untraced and then traced."""
    case = case_cls(seed, tiny)
    inputs = prefix_inputs(case)
    execute(case, case.warmup_inputs())

    plain_digests, traced_digests = [], []
    plain_times, failed = execute(case, inputs, plain_digests)
    tracer = Tracer()
    tracer.install()
    try:
        traced_times, traced_failed = execute(case, inputs, traced_digests, tracer=tracer)
    finally:
        tracer.restore()
    failed += traced_failed
    failed += sum(a != b for a, b in zip(plain_digests, traced_digests))
    failed += reference_mismatches(case.name, seed, tiny, plain_digests)

    summary = tracer.summary()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = layer_metrics(summary, sum(plain_times), sum(traced_times))
    return {
        "attempted": 2 * len(inputs),
        "failed": failed,
        "metrics": metrics,
        "digest": _short_hash("".join(map(str, plain_digests)).encode()),
        "traced_digest": _short_hash("".join(map(str, traced_digests)).encode()),
    }
