"""Trace replay: drive the simulator from measured inter-packet delays.

Builds a small synthetic trace file per path (stand-ins for real captures),
then runs estimated-mode experiments over it: parameters come from the
rolling window, exactly as a sender observing ACK gaps would see them.
The trace files live in a temporary directory removed at the end.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from sosim import DelaySourceSpec, ExperimentConfig, run_experiment

with tempfile.TemporaryDirectory() as tmp_name:
    tmp = Path(tmp_name)
    rng = np.random.default_rng(5)
    for name, mean, std in (("wifi", 6.0, 5.0), ("cellular", 9.0, 2.0)):
        shape, scale = (mean / std) ** 2, std**2 / mean
        samples = rng.gamma(shape, scale, size=20_000)
        path = tmp / f"{name}.csv"
        path.write_text(
            "seq,delay_ms\n" + "".join(f"{i},{x:.4f}\n" for i, x in enumerate(samples))
        )
        print(f"wrote {path.name} ({len(samples)} samples, mean {samples.mean():.2f}ms)")

    config = ExperimentConfig(
        paths=(
            DelaySourceSpec(kind="trace", trace_path=tmp / "wifi.csv"),
            DelaySourceSpec(kind="trace", trace_path=tmp / "cellular.csv"),
        ),
        scheduler="sos",
        object_size=200,
        replications=500,
        seed=1,
        mode="estimated",
        warmup_packets=5000,
    )

    for scheduler in ("sos", "sos_fec", "edf", "sedpf"):
        row = run_experiment(replace(config, scheduler=scheduler))
        print(f"{scheduler:8s} mean={row.mean_delay_ms:8.2f}ms p95={row.p95_delay_ms:8.2f}ms "
              f"redundancy={row.redundancy_fraction * 100:4.1f}%")
