#!/usr/bin/env python3
"""Self-check of the benchmark itself, at the tiny size of every workload.

    python3 bench/selfcheck.py

For each workload it checks that an untraced and a traced run report no
failed op and print every metric ``BENCHMARK.json`` lists, and that a run
whose first golden is deliberately perturbed reports exactly that op as
failed.  Exits 0 when all of this holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int, perturb: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        before = len(problems)
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _run(name, trace, perturb=False)
            wanted = {m["name"] for m in listed}
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops")
            if set(result["metrics"]) != wanted:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
        result = _run(name, 0, perturb=True)
        # one perturbed golden, one failure per repetition (3 repetitions)
        if result["correct"] or result["failed"] != 3:
            problems.append(f"{name}: perturbed golden gave failed={result['failed']}")
        print(f"{name}: {'ok' if len(problems) == before else 'FAIL'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
