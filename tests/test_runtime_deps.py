"""sosim needs only numpy at runtime; scipy is a test-only dependency.

Each check runs in a fresh interpreter, so modules the test session has
already imported cannot hide a runtime import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_does_not_load_scipy():
    out = run_python("import sys, sosim; print(sorted(m for m in sys.modules if 'scipy' in m))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_experiments_and_pages_run_with_scipy_blocked():
    code = """
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
from dataclasses import replace

import numpy as np
from sosim import DelaySourceSpec, ExperimentConfig, SimConfig, make_source, run_experiment
from sosim.priority_engine import run_page
from sosim.workloads import random_page

paths = (
    DelaySourceSpec(kind="gamma", mean_ms=5.0, stddev_ms=3.0),
    DelaySourceSpec(kind="gamma", mean_ms=7.0, stddev_ms=1.0, propagation_ms=2.0),
)
for mode in ("oracle", "estimated"):
    config = ExperimentConfig(paths=paths, scheduler="sos_fec", object_size=20,
                              replications=5, seed=1, mode=mode, warmup_packets=200)
    assert run_experiment(config).p95_delay_ms > 0
page = random_page(np.random.default_rng(3), 6, 2, 0.5)
sources = [make_source(replace(s, seed=j)) for j, s in enumerate(paths)]
_, result = run_page(page, sources, SimConfig(), "sos")
assert result.dom_complete_ms > 0
print("ok")
"""
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
