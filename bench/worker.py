"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 -I bench/worker.py <root> ...``.  The
first thing it does is import ``hookcounts`` and ``hookcounts.cli`` from
``<root>/src``, and it stamps the monotonic clock when they are ready, so the
parent can measure set-up as "spawn until ready".  It then checks that every
``lru_cache`` in the package is empty, runs the workload's ops one after the
other (closed loop, one caller), compares each output with its golden, and
writes one JSON object to stdout.
"""

import os
import sys
import time


def _import_package(root: str) -> float:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hookcounts  # noqa: F401
    import hookcounts.cli  # noqa: F401

    ready = time.monotonic()
    where = os.path.realpath(hookcounts.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hookcounts imported from {where}, not from {src}")
    return ready


def _caches() -> dict:
    """layer -> list of (name, lru_cache wrapper) defined in that layer."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("hookcounts."):
            continue
        layer = modname.split(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                out.setdefault(layer, []).append((name, obj))
    return out


def _cold_start_guard(caches: dict) -> None:
    warm = [f"{layer}.{name}" for layer, items in caches.items()
            for name, c in items if c.cache_info().currsize]
    if warm:
        raise SystemExit(f"caches not empty before the first op: {warm}")


def _cache_totals(caches: dict) -> dict:
    totals = {}
    for layer, items in caches.items():
        infos = [c.cache_info() for _, c in items]
        totals[layer] = (sum(i.hits for i in infos), sum(i.misses for i in infos),
                         sum(i.currsize for i in infos))
    return totals


def main(argv: list[str]) -> int:
    root, workload, size, seed, trace, perturb = argv
    ready = _import_package(root)

    import json
    import resource

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import reference
    import workloads

    with open(os.path.join(root, "bench", "goldens.json")) as fh:
        goldens = json.load(fh)[workload][size]
    ops = workloads.build_ops(workload, size, int(seed))
    if perturb == "1":
        # self-check: a golden that no correct output can match
        goldens[ops[0].key] = dict(goldens[ops[0].key], perturbed=True)

    caches = _caches()
    _cold_start_guard(caches)
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    results = []
    spans = []
    clock = time.perf_counter
    ref = reference.Reference()
    ref.run(reference.SLICES)
    if tracer is None:
        # traced self times would absorb the slices, so trace runs skip them
        ref.start_sampling()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        spans.append((t0, clock()))
        results.append(result)
    ref.stop_sampling()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref.run(reference.SLICES)
    seconds = [ref.op_seconds(t0, t1) for t0, t1 in spans]
    latencies = [raw for raw, _ in seconds]
    latencies_norm = [norm for _, norm in seconds]
    # the ops back to back, without the reference slices run among them
    wall = sum(latencies)
    layers = tracer.metrics(wall, _cache_totals(caches)) if tracer is not None else None

    failed = []
    work = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            failed.append({"op": op.key, "error": f"{type(result).__name__}: {result}"})
            continue
        fp = workloads.record(op, result)
        golden = goldens.get(op.key)
        if workloads.op_failed(result, fp, golden):
            failed.append({"op": op.key, "got": fp, "golden": golden})
        else:
            work += workloads.op_work(op, result)

    out = {
        "ready": ready,
        "wall_s": wall,
        "wall_norm_s": sum(latencies_norm),
        "latencies_s": latencies,
        "latencies_norm_s": latencies_norm,
        "ref_slice_s": ref.median_s(),
        "attempted": len(ops),
        "failed": failed,
        "work": work,
        "work_unit": workloads.WORK_UNITS[workload],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["dropped_spans"] = tracer.dropped_spans
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        # set-up probe: import, report the ready stamp, exit
        print(_import_package(sys.argv[1]))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
