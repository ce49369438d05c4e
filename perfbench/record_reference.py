"""Record the reference result digests of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: per workload, a short hash of each op's
result over the digested prefix (the first whole passes covering at least
100 ops).  Runs compare against it at the default seed and count every op
whose result differs as failed, so re-record only in a change that means to
alter results, and say which results changed and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from cases import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name, case_cls in WORKLOADS.items():
        case = case_cls(bench.DEFAULT_SEED)
        digests = []
        _, failed = bench.execute(case, bench.prefix_inputs(case), digests)
        if failed:
            print(f"{name}: {failed} ops failed; reference not written", file=sys.stderr)
            return 1
        reference[name] = digests
        print(f"{name}: {len(digests)} ops")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
