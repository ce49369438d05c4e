"""The benchmark's own checks: metric names and units, the reference
digests, and the fidelity of the traced run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
from cases import PAGE_BACKLOG_COUNTS, WORKLOADS, page_load_backlogs  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def _units(result):
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def test_spec_lists_exactly_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_emits_every_end_to_end_metric(name):
    result = bench.run_untraced(WORKLOADS[name], seed=5, seconds=0.05, tiny=True)
    assert result["failed"] == 0
    assert result["attempted"] >= bench.MIN_OPS
    units = _units(result)
    for metric in SPEC["end_to_end"]:
        assert units[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]][0] > 0
    assert result["metrics"]["failed_frac"] == (0.0, "ratio")


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_repeats_its_counts(name):
    first = bench.run_traced(WORKLOADS[name], seed=5, tiny=True)
    second = bench.run_traced(WORKLOADS[name], seed=5, tiny=True)
    assert first["failed"] == 0
    assert first["digest"] == first["traced_digest"] == second["digest"]
    units = _units(first)
    for metric in SPEC["per_layer"]:
        assert units[metric["name"]] == metric["unit"]

    def exact(result):
        return {k: v for k, (v, unit) in result["metrics"].items() if unit in ("count", "ratio")}

    assert exact(first) == exact(second)
    assert first["metrics"]["scheduler_core.solve_integer.calls"][0] > 0
    shares = sum(v for k, (v, _) in first["metrics"].items() if k.startswith("share."))
    assert math.isclose(shares, 1.0, rel_tol=1e-9)


def test_tracer_restores_every_wrapped_callable():
    tracer = Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)
    bench.run_traced(WORKLOADS["page_load"], seed=5, tiny=True)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_results_match_the_reference(name):
    case = WORKLOADS[name](bench.DEFAULT_SEED)
    digests = []
    _, failed = bench.execute(case, bench.prefix_inputs(case), digests)
    assert failed == 0
    assert bench.reference_mismatches(name, bench.DEFAULT_SEED, False, digests) == 0


def test_plan_backlogs_are_those_page_load_produces():
    assert page_load_backlogs(1, 4) == PAGE_BACKLOG_COUNTS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "page_load", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
