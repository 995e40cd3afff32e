import ast
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import hookcounts

ROOT = Path(__file__).resolve().parent.parent

# public names that no module of the package reads, each with its reader
READ_OUTSIDE = {
    "MAP_MIN_N",  # bench/workloads.py
    "hook_multiset",  # tests/test_acceptance.py, criterion 7
}


def test_package_root_exports_nothing():
    # names are imported from the submodules; the root binds only its version
    # (and the submodules the import system hangs on it once they load)
    public = {
        name
        for name, value in vars(hookcounts).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set()
    assert isinstance(hookcounts.__version__, str)


def test_every_public_name_is_read_in_the_package():
    # the library exports only what its modules use; an oracle only the tests
    # call belongs in tests/.  A name is read where a statement other than its
    # definition loads it bare, or as an attribute of a package module
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "hookcounts").glob("*.py")}
    public, reads = [], set()
    for module, tree in trees.items():
        for node in tree.body:  # functions, classes, assignments, imports and docstrings
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                bound = {target.id for target in targets if isinstance(target, ast.Name)}
            public += [f"{module}.{name}" for name in bound if not name.startswith("_")]
            reads |= {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                or isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in trees
            } - bound
    assert "hookgf.hook_table" in public and "injections.MAP_MIN_N" in public
    assert sorted(name for name in public if name.split(".")[1] not in reads | READ_OUTSIDE) == []


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # the repository's warning filters make warnings errors; one raised in
    # hypothesis's failure report would end the run as an INTERNALERROR (exit 3)
    # before the tests after the failing one ran
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after_the_failure():
            pass
    """))
    config = ROOT / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
