#!/usr/bin/env python3
"""The hookcounts benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload for ``--seconds`` seconds as a sequence of repetitions.
Each repetition is a fresh interpreter (``bench/worker.py``) that starts with
cold caches, runs the workload's ops one after another -- a closed loop with
one caller, one process at a time -- and checks every output against
``bench/goldens.json``.  Set-up time is sampled on every repetition and on
extra import-only probes.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, as
medians over the repetitions; every time but set-up is normalised against
the reference kernel of ``bench/reference.py``, run in the worker around and
during the ops, so that the host's drift in speed cancels.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
repetitions) plus ``trace.overhead``, traced over untraced wall time; its
spans go to ``.bench_out/``.  The last line of stdout is the JSON result;
the lines before it name every metric with its unit and record the machine.

``--size tiny`` and ``--perturb`` exist for ``bench/selfcheck.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_REPS = 3          # repetitions per run, however long each takes
SETUP_PROBES = 12     # extra import-only interpreters for setup_s
HARD_STOP_S = 120.0   # start no repetition after this; the run must end by 180 s
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "loadavg_at_start": os.getloadavg(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code when no commit can."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hookcounts")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one interpreter to completion; return (spawn stamp, stdout)."""
    cmd = [sys.executable, "-I", WORKER, ROOT, *args]
    timeout = min(WORKER_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, proc.stdout


def _rep(opts, trace: int, deadline: float) -> dict:
    spawned, out = _spawn([opts.workload, opts.size, str(opts.seed), str(trace),
                           "1" if opts.perturb else "0"], deadline)
    rep = json.loads(out)
    rep["setup_s"] = rep["ready"] - spawned
    return rep


def _setup_probe(deadline: float) -> float:
    spawned, out = _spawn([], deadline)
    return float(out) - spawned


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    def per_rep(q: int) -> float:
        return 1000 * statistics.median(_percentile(r["latencies_norm_s"], q) for r in reps)

    values = {
        "wall_norm_s": statistics.median(r["wall_norm_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "work_per_norm_s": statistics.median(r["work"] / r["wall_norm_s"] for r in reps),
        "op_p50_norm_ms": per_rep(50),
        "op_p90_norm_ms": per_rep(90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    ops = sum(len(r["latencies_norm_s"]) for r in reps)
    samples = {"wall_norm_s": len(reps), "setup_s": len(setups),
               "work_per_norm_s": len(reps), "op_p50_norm_ms": ops,
               "op_p90_norm_ms": ops, "peak_rss_mb": len(reps)}
    return values, samples


def _per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    names = traced[0]["layers"].keys()
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    values["trace.overhead"] = (statistics.median(r["wall_norm_s"] for r in traced)
                                / statistics.median(r["wall_norm_s"] for r in untraced))
    return values, {n: len(traced) for n in values}


def _write_spans(opts, rep: dict) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans_{opts.workload}_{opts.seed}.json")
    fields = ("id", "parent", "op", "name", "start", "end")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "dropped": rep["dropped_spans"],
                   "spans": rep["spans"]}, fh)
    return os.path.relpath(path, ROOT)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="hookcounts benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--perturb", action="store_true")
    opts = p.parse_args(argv)

    start = time.monotonic()
    deadline = start + 175.0
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if opts.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {opts.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "hookcounts", "__init__.py")):
            raise BenchError("no hookcounts source under src/ in this checkout")
        machine = _machine()

        untraced: list[dict] = []
        traced: list[dict] = []
        minimum = 1 if opts.trace else MIN_REPS
        last = 0.0  # duration of the last repetition (or traced pair)
        while True:
            elapsed = time.monotonic() - start
            if len(untraced) >= minimum and (elapsed + last > opts.seconds
                                             or elapsed >= HARD_STOP_S):
                break
            untraced.append(_rep(opts, 0, deadline))
            if opts.trace:
                traced.append(_rep(opts, 1, deadline))
            last = time.monotonic() - start - elapsed
        if opts.trace:
            listed = spec["per_layer"]
            values, samples = _per_layer(untraced, traced)
            spans_path = _write_spans(opts, traced[-1])
        else:
            listed = spec["end_to_end"]
            setups = [r["setup_s"] for r in untraced]
            setups += [_setup_probe(deadline) for _ in range(SETUP_PROBES)]
            values, samples = _end_to_end(untraced, setups)
            spans_path = None
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failed"]]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {opts.workload} size={opts.size} seed={opts.seed} trace={opts.trace} "
          f"repetitions={len(untraced)} traced={len(traced)} "
          f"elapsed_s={time.monotonic() - start:.3f}")
    for m in listed:
        print(f"  {m['name']:32s} {values[m['name']]:>16.6g} {m['unit']:8s} "
              f"n={samples[m['name']]}")
    print(f"  work unit: {untraced[0]['work_unit']}")
    print(f"  {'fail_frac':32s} {len(failures) / attempted:>16.6g} {'ratio':8s} "
          f"n={attempted}")
    print("wall_s of each repetition: "
          + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    print("reference slice of each repetition, ms: "
          + " ".join(f"{1000 * r['ref_slice_s']:.3f}" for r in untraced))
    if spans_path:
        print(f"spans: {spans_path}")
    for f in failures[:5]:
        print(f"FAILED: {json.dumps(f)[:400]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
