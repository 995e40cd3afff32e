"""Byte-exact goldens for ``hooks verify injection``.

Each line pins the exit code and the sha256 of stdout.  The goldens cover
every map id, each output format, the gamma reports at t < 4 whose
``NotInCodomain`` violations no other test pins text for, and the usage
errors.  stderr is not pinned: gamma's ``RuntimeWarning`` carries a source
path and line number.
"""

import hashlib
import warnings

import pytest

from hookcounts import cli

GOLDENS = [
    ("--map phi1 --t 2 --n-max 16 --format json", 0, "b867aa10e8b2cc15ccc55c5731e9995e77a165af5022b2643a4ddda96b31e87f"),
    ("--map phi2 --t 2 --n-max 36 --format csv", 0, "dcef9a19a9c333261bddf5fb079219c4edfcce279a3f10f3cb0c3a30c68eb56e"),
    ("--map phi3 --t 2 --n-max 40 --format human", 0, "d95410200f07491e7d5f0858d89388fe2cd53687f0f891d754280992bd737b85"),
    ("--map phi4 --t 2 --n-max 30 --format human", 0, "7e4a7ae4325d25cd4e171b00500fdbb78dca80ef0cb900031f5966445d67f394"),
    ("--map phi --t 3 --n-max 20 --format json", 0, "28a541273c04ed1a6b33d855b3a4a38d4dbbf68926a7f57693d35047267853e7"),
    ("--map phi --t 2 --n-max 24 --format csv", 0, "9b024368053ab54fa4282861653f12967d69d59b1d246ce566c65e988aacddc2"),
    ("--map gamma --t 2 --n-max 12 --format json", 1, "58ea45493bf6aaee4887096827b63b04b2673f794ef3e656574ad47836dabc57"),
    ("--map gamma --t 2 --n-max 24 --format human", 1, "7e5879644ffbf9f3e08ecaa01d76390aed17644aa9ba417c622331cfafdb6385"),
    ("--map gamma --t 3 --n-max 20 --format human", 0, "53586e3642a5d855f399f6cbece70521b30e93119fef58147cd1350420875e74"),
    ("--map gamma --t 4 --n-max 20 --format csv", 0, "2897318c3adad7a14d33e03a5ce035983a236c2875b4dd2aa522fa58e552a272"),
    ("--map epsilon --t 2 --n-max 20 --format human", 0, "f8ba2196fd2677f8bc7007b799b317dce59f0f1ce9f2e591e76e0279c9a60495"),
    ("--map tau --t 3 --n-max 15 --format json", 0, "8aab181acf891c755998354eee6bf30bcfd647bfdc1f1963fba56d1c60321237"),
    ("--map tau --t 5 --n-max 14 --format csv", 0, "bd6a64834684826b0427587c0c60f28edad4c0653118348260aed5b8cb5be03d"),
    ("--map epsilon --t 3 --n-max 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--map tau --t 2 --n-max 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--map gamma --t 1 --n-max 5", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("line,code,digest", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_verify_injection_stdout_is_pinned(capsys, line, code, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli.main(["verify", "injection", *line.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
