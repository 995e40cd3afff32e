import subprocess
import sys
import textwrap
import types
from pathlib import Path

import hookcounts

ROOT = Path(__file__).resolve().parent.parent


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
