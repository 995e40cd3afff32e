"""Mutation check of the one-home declarations: does the suite notice a wrong one?

Each partition family's predicate, walk and counting table come from one
record in ``hookgf.FAMILY_RULES``, so verify_injection's DomainIncomplete check,
which compares the walk with the table, cannot see a wrong declaration.
Nor can a report see a wrong ``reads`` declaration or a wrong
``Family.projections``, which verify_injection's codomain disjointness
check classifies in place of the members; the ``injections.py`` mutants
break those, and two of them change a record's default (``MapSpec.regular_from``,
``Family.reads``).  The last four break a decision that every other site
reads from one home: an output format of ``checks.FORMATS``, a piece of
``hookgf.PIECES``, the t rule of ``series.check_t`` and D1 and D2 at t = 2 only.
The ``block-*`` mutants break the block evaluator ``hookgf.blocks`` where
a whole-series evaluator has no counterpart: the coefficients a row
carries into the next block, a term that starts in a later block, and
the last block when it is short.
This script makes each mutant below in a copy of ``src/`` and ``tests/``,
runs the mutated tests of SUITE there, one process at a time, and calls the
mutant killed when a test fails that passes on the unmutated copy (the
acceptance suite's intended reds fail on both).  The result goes to
``tests/mutation.json``; a mutant that survives must be killed by a new
test or listed in ``EQUIVALENT`` with the reason no test can kill it.

    python tests/mutation.py [WORKDIR]

Exits 1 if a mutant not listed in ``EQUIVALENT`` survives.  Not part of the
tier-1 suite: the name does not match ``test_*.py``.  One run takes a few
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = (
    "tests/test_hookgf.py",
    "tests/test_injections.py",
    "tests/test_acceptance.py",
    "tests/test_checks_cli.py",
    "tests/test_cli_goldens.py",
)
HOOKGF = "src/hookcounts/hookgf.py"
INJECTIONS = "src/hookcounts/injections.py"
CHECKS = "src/hookcounts/checks.py"
SERIES = "src/hookcounts/series.py"

# name -> (file, text, replacement); the text occurs exactly once in the file
MUTANTS = {
    "O-residue-1-to-0": (HOOKGF, '"O": lambda t: Rules(ones=(1,),', '"O": lambda t: Rules(ones=(0,),'),
    "S-residue-4-to-5": (HOOKGF, "Rules(ones=(2, 4), mod=6)", "Rules(ones=(2, 5), mod=6)"),
    "D1-residue-4-to-5": (HOOKGF, "Rules(ones=(4,), mod=12)", "Rules(ones=(5,), mod=12)"),
    "A-drops-forbidden-3": (HOOKGF, "Rules(forbid=(3,), ones=", "Rules(ones="),
    "R-drops-needed-part": (HOOKGF, "Rules(allow=(2 * t,), needs=2 * t + 1)", "Rules(allow=(2 * t,))"),
    "R-drops-allowed-2t": (HOOKGF, "Rules(allow=(2 * t,), needs=2 * t + 1)", "Rules(needs=2 * t + 1)"),
    "table-drops-t-divides-x-exemption": (HOOKGF, "        if x % t:\n", "        if True:\n"),
    "table-drops-needed-part-factor": (HOOKGF, "terms = {needs: 1}", "terms = {0: 1}"),
    "table-drops-one-minus-q": (
        HOOKGF,
        "_times(_times(terms, {0: 1, 1: -1}), dict.fromkeys(ones, 1))",
        "_times(terms, dict.fromkeys(ones, 1))",
    ),
    "R-reads-only-ones": (
        INJECTIONS, '"R": (_r_subsets, _one_mod_2t),', '"R": (_r_subsets, lambda v, t: v == 1),'
    ),
    "fill-skips-allowed-2t": (
        INJECTIONS, "            else:  # each doubling", "            elif v % t:  # each doubling"
    ),
    "projections-drop-needed-part": (
        INJECTIONS, "partitions_of(n, read_ok.__getitem__, None, x)", "partitions_of(n, read_ok.__getitem__)"
    ),
    "overlap-needs-three-subsets": (
        INJECTIONS, "len(codomain_subsets(p, t)) > 1", "len(codomain_subsets(p, t)) > 2"
    ),
    "regular-from-default-2-to-3": (INJECTIONS, "    regular_from: int = 2\n", "    regular_from: int = 3\n"),
    "reads-default-only-ones": (INJECTIONS, "bool] = lambda v, t: True", "bool] = lambda v, t: v == 1"),
    "formats-drop-csv": (CHECKS, '"csv": _emit_csv, ', ""),
    "piece-B-sign-flipped": (HOOKGF, "2 * t: -1}}", "2 * t: 1}}"),
    "check-t-refuses-2": (SERIES, "    if t < 2:\n", "    if t < 3:\n"),
    "D1-D2-t2-guard-removed": (HOOKGF, "    if t != 2:\n", "    if False:\n"),
    "block-carry-off-by-one": (HOOKGF, "carry[:] = acc[-m:]", "carry[:] = acc[-m - 1 : -1]"),
    "block-skips-later-terms": (
        HOOKGF, "            if e >= hi:\n                break", "            if e >= BLOCK:\n                break"
    ),
    "block-drops-last-partial": (
        HOOKGF, "for lo in range(0, order + 1, BLOCK)", "for lo in range(0, order + 1 - (order + 1) % BLOCK, BLOCK)"
    ),
}

# mutants no test can kill, with the reason
EQUIVALENT: dict[str, str] = {}


def failures(work: Path) -> set[str]:
    """The ids of the tests of SUITE that fail in the copy at ``work``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *SUITE],
        cwd=work,
        capture_output=True,
        text=True,
    )
    if run.returncode not in (0, 1):  # 1: some test failed; anything else: no verdict
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def main(argv: list[str]) -> int:
    work = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="hookcounts-mutation-"))
    for part in ("src", "tests", "pyproject.toml"):
        source, target = ROOT / part, work / part
        if source.is_dir():
            shutil.copytree(source, target, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target)
    baseline = failures(work)
    print(f"unmutated: {len(baseline)} failing", flush=True)
    killed, survivors = {}, []
    for name, (file, text, replacement) in MUTANTS.items():
        path = work / file
        original = path.read_text()
        if original.count(text) != 1:
            raise RuntimeError(f"{name}: the text to mutate occurs {original.count(text)} times")
        path.write_text(original.replace(text, replacement))
        try:
            new = sorted(failures(work) - baseline)
        finally:
            path.write_text(original)
        print(f"{name}: {len(new)} new failures", flush=True)
        if new:
            killed[name] = len(new)
        else:
            survivors.append(name)
    if not argv:
        shutil.rmtree(work)
    unexplained = [name for name in survivors if name not in EQUIVALENT]
    result = {
        "suite": list(SUITE),
        "killed": killed,
        "survivors": survivors,
        "equivalent": {name: EQUIVALENT[name] for name in survivors if name in EQUIVALENT},
    }
    (ROOT / "tests" / "mutation.json").write_text(json.dumps(result, indent=2) + "\n")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
