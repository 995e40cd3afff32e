#!/usr/bin/env python3
"""Record ``bench/goldens.json``: the fingerprint of every op's output.

    python3 bench/record_goldens.py

Run it only at a commit whose outputs are known good; the benchmark then
counts any op whose output differs as failed.  The known discrepancies
(identity ``def`` and sign ``E`` at t=2, both exit 1) are recorded as they
are, so they stay pinned.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            ops = workloads.build_ops(workload, size, 0)
            records = {}
            for op in ops:
                result = op.call()
                fp = workloads.record(op, result)
                if isinstance(result, dict) and result["exit"] == 2:
                    raise SystemExit(f"{op.key} exited 2: {result['stderr']}")
                records[op.key] = fp
            goldens.setdefault(workload, {})[size] = dict(sorted(records.items()))
            print(f"{workload} {size}: {len(records)} ops", file=sys.stderr)
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
