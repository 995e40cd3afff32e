"""Workload definitions for the hookcounts benchmark.

A workload is a list of ops.  Each op calls one public entry point of
``hookcounts.checks``, ``hookcounts.injections`` or ``hookcounts.cli`` and
returns its raw result; :func:`fingerprint` turns that result into the small
JSON-able record that ``goldens.json`` pins.  Only the ``cli_mix`` command
order depends on the seed; the other workloads are fixed grids.

Sizes: ``full`` is what the benchmark times, ``tiny`` is the self-check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("thm12_t3", "oracle_grid", "injection_grid", "cli_mix")
SIZES = ("full", "tiny")

# Unit of the work each workload certifies, for work_per_s.
WORK_UNITS = {
    "thm12_t3": "series coefficients",
    "oracle_grid": "(t,k,n) cells",
    "injection_grid": "domain partitions",
    "cli_mix": "commands",
}

# run_thm12(3, N): the difference series is scanned to order N.  At this
# order the quadratic Euler-product build is nearly all of the time, and one
# repetition is short enough for a 30 s run to hold about a dozen.
THM12_ORDER = {"full": 6000, "tiny": 300}

# run_oracle_crosscheck(t_max, n_max, ks): the criterion-1 grid, cut from
# n <= 40 to n <= 36 so that a 30 s run holds several repetitions.
ORACLE_GRID = {"full": (6, 36, (1, 2, 3)), "tiny": (3, 12, (1, 2, 3))}

# verify_injection at every n <= n_max of (map, t), over a subset of the
# criterion-6 grid that reaches every map: phi dispatches to phi1..phi4 and
# their inverses, gamma, epsilon and tau cover the rest.
INJECTION_GRID = {
    "full": (
        ("phi", 2, 40), ("phi", 3, 36), ("phi", 4, 36),
        ("gamma", 4, 34), ("gamma", 5, 34),
        ("epsilon", 2, 44),
        ("tau", 3, 36), ("tau", 4, 36),
    ),
    "tiny": (
        ("phi", 2, 12), ("gamma", 4, 10), ("epsilon", 2, 12), ("tau", 3, 10),
    ),
}


@dataclass(frozen=True)
class Op:
    key: str
    call: Callable[[], Any]
    work: int
    # run after the timed ops, for outputs the op's result does not show
    verify: Callable[[], dict] | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------


def _thm12_ops(size: str) -> list[Op]:
    from hookcounts import checks

    order = THM12_ORDER[size]

    def coefficients() -> dict:
        # Below the theorem's bound the check's verdict hardly depends on the
        # coefficients, so pin the two series it differences as well.
        csv = [run_cli(["series", "--name", name, "--t", "3", "--order", str(order)])
               for name in ("bt1", "bt2")]
        return {"coefficients_sha256": _sha("".join(r["stdout"] for r in csv))}

    return [Op(f"run_thm12 3 {order}", lambda: checks.run_thm12(3, order), order + 1,
               coefficients)]


def _oracle_ops(size: str) -> list[Op]:
    from hookcounts import checks

    t_max, n_max, ks = ORACLE_GRID[size]
    cells = (t_max - 1) * len(ks) * (n_max + 1)
    key = f"run_oracle_crosscheck {t_max} {n_max} {','.join(map(str, ks))}"
    return [Op(key, lambda: checks.run_oracle_crosscheck(t_max, n_max, ks), cells)]


def _injection_ops(size: str) -> list[Op]:
    from hookcounts import injections

    def call(map_id: str, t: int, n: int):
        return lambda: injections.verify_injection(map_id, t, n)

    # one op per (map, t, n) cell, as verify_injection_range would run them;
    # the work, domain partitions certified, is read from each report
    return [
        Op(f"verify_injection {m} {t} {n}", call(m, t, n), 0)
        for m, t, n_max in INJECTION_GRID[size]
        for n in range(injections.MAP_MIN_N.get(m, 0), n_max + 1)
    ]


def cli_commands(size: str) -> list[list[str]]:
    """The ``hooks`` command lines of cli_mix, in their unshuffled order."""
    if size == "tiny":
        return [
            ["count", "--t", "2", "--k", "2", "--n", "12", "--method", "gf"],
            ["count", "--t", "3", "--k", "1", "--n", "14", "--method", "gf"],
            ["series", "--name", "bt3", "--t", "2", "--order", "30"],
            ["verify", "identity", "--which", "def", "--t", "2", "--order", "40"],
            ["verify", "theorem", "--which", "e", "--t-max", "3", "--order", "40",
             "--format", "json"],
            ["verify", "injection", "--map", "tau", "--t", "3", "--n-max", "8",
             "--format", "csv"],
        ]
    cmds: list[list[str]] = []
    # counts read off the series at 60 distinct orders; each new order is a
    # fresh build behind the per-order caches
    for i, n in enumerate(range(6, 246, 4)):
        for t, k in (((i % 6) + 2, (i % 3) + 1), (((i + 3) % 6) + 2, ((i + 1) % 3) + 1)):
            cmds.append(["count", "--t", str(t), "--k", str(k), "--n", str(n), "--method", "gf"])
    names = ("bt1", "bt2", "bt3", "A", "B", "C", "D", "E", "F")
    for t in (2, 3, 4, 5):
        for j, name in enumerate(names):
            order = (150, 300, 500)[(j + t) % 3]
            cmds.append(["series", "--name", name, "--t", str(t), "--order", str(order)])
    formats = ("json", "csv", "human")
    for j, (which, t) in enumerate(
        (w, t) for w in ("abc", "def") for t in (2, 3, 4, 5)
    ):
        # identity def at t=2 is a known discrepancy: exit 1 is the golden
        cmds.append(["verify", "identity", "--which", which, "--t", str(t),
                     "--order", "200", "--format", formats[j % 3]])
    for which in ("d", "e", "f"):
        # sign E has the undeclared negative cell (2, 6): exit 1 is the golden
        for fmt in formats:
            cmds.append(["verify", "theorem", "--which", which, "--t-max", "4",
                         "--order", "200", "--format", fmt])
    for j, order in enumerate((400, 600, 800, 1000)):
        cmds.append(["verify", "theorem", "--which", "thm12", "--t", "2",
                     "--order", str(order), "--format", formats[j % 3]])
    cmds.append(["verify", "injection", "--map", "phi", "--t", "2", "--n-max", "18",
                 "--format", "json"])
    cmds.append(["verify", "injection", "--map", "tau", "--t", "3", "--n-max", "16",
                 "--format", "csv"])
    return cmds


def run_cli(argv: list[str]) -> dict:
    """Run one command line through ``hookcounts.cli.main``, output captured."""
    from hookcounts import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_ops(size: str, seed: int) -> list[Op]:
    cmds = cli_commands(size)
    random.Random(seed).shuffle(cmds)
    return [Op("hooks " + " ".join(argv), (lambda a=argv: run_cli(a)), 1) for argv in cmds]


def build_ops(workload: str, size: str, seed: int) -> list[Op]:
    if workload == "thm12_t3":
        return _thm12_ops(size)
    if workload == "oracle_grid":
        return _oracle_ops(size)
    if workload == "injection_grid":
        return _injection_ops(size)
    if workload == "cli_mix":
        return _cli_ops(size, seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def fingerprint(result) -> dict:
    """The golden record of one op's output.

    Verdicts, witnesses, domain sizes and exit codes are kept in the clear so
    that a mismatch is readable; a sha256 pins the rest of the output.
    """
    from hookcounts.checks import TheoremCheck
    from hookcounts.injections import VerificationReport

    if isinstance(result, TheoremCheck):
        d = result.to_dict()
        return {
            "passed": d["passed"],
            "witnesses": d["witnesses"],
            "sha256": _sha(_canonical(d)),
        }
    if isinstance(result, dict) and "exit" in result:
        return {
            "exit": result["exit"],
            "stdout_sha256": _sha(result["stdout"]),
            "stderr_sha256": _sha(result["stderr"]),
        }
    if isinstance(result, VerificationReport):
        d = result.to_dict()
        return {
            "passed": d["passed"],
            "domain_size": d["domain_size"],
            "image_size": d["image_size"],
            "violations": len(d["violations"]),
            "sha256": _sha(_canonical(d)),
        }
    raise TypeError(f"no fingerprint for {type(result).__name__}")


def record(op: Op, result) -> dict:
    """The fingerprint of an op's result plus whatever its verify step adds."""
    fp = fingerprint(result)
    if op.verify is not None:
        fp.update(op.verify())
    return fp


def op_work(op: Op, result) -> int:
    return getattr(result, "domain_size", op.work)


def op_failed(result, fp: dict, golden: dict | None) -> bool:
    """An op fails when it exited 2 or its fingerprint differs from the golden."""
    if isinstance(result, dict) and result.get("exit") == 2:
        return True
    return golden is None or fp != golden

