"""The scripts under ``scripts/`` run as subprocesses, the way they are used."""

import json
import os
import subprocess
import sys

import pytest

import hookcounts

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("--t", "1"),  # the theorem and its bound need t >= 2
        ("--t", "2", "--margin", "-10"),  # would stop short of the bound and pass vacuously
    ],
    ids=["t-below-2", "negative-margin"],
)
def test_thm12_full_run_bad_input_exits_2(args):
    done = run_script("thm12_full_run.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_thm12_full_run_t2_passes():
    done = run_script("thm12_full_run.py", "--t", "2", "--margin", "0", "--format", "json")
    assert done.returncode == 0
    assert json.loads(done.stdout)["info"]["asserted_range"] == [2990, 2990]


@pytest.mark.parametrize(
    "args",
    [
        ("--t-max", "1"),  # would scan no t and print "none" for every series
        ("--order", "-1"),
    ],
    ids=["t-max-below-2", "negative-order"],
)
def test_exception_scan_bad_input_exits_2(args):
    done = run_script("exception_scan.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_exception_scan_lists_the_e_cells():
    done = run_script("exception_scan.py", "--t-max", "2", "--order", "40")
    assert done.returncode == 0
    assert "  E: (t=2, n=3: -1), (t=2, n=6: -1), (t=2, n=9: -1)" in done.stdout.splitlines()
