"""sosim benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload page_load --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; sosim is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics.  Each
metric is also printed on its own line before it as `name value unit`, and
the full record (environment, every per-layer metric, result digests) is
saved under perfbench/out/.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sosim" / "__init__.py").is_file():
        print(f"perfbench: no sosim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    case_cls = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"

    env = bench.environment()
    print(f"perfbench {args.workload} seed={seed} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "measurement"))
    print(f"measurement: {env['measurement']}")
    if args.trace:
        result = bench.run_traced(case_cls, seed, spans_path=out_dir / f"{stem}.spans.csv.gz")
        reported = bench.PER_LAYER
    else:
        result = bench.run_untraced(case_cls, seed, args.seconds)
        reported = tuple(bench.END_TO_END)

    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    record = dict(result, workload=args.workload, seed=seed, trace=args.trace, environment=env)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    metrics = {k: {"value": result["metrics"][k][0], "unit": result["metrics"][k][1]}
               for k in reported}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
