import argparse
import ast
import glob
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import hookcounts
from hookcounts import checks, cli, hookgf, injections, series
from hookcounts.checks import (
    emit,
    run_identity_check,
    run_oracle_crosscheck,
    run_sign_check,
    run_thm12,
    run_thm13,
)
from hookcounts.injections import verify_injection
from hookcounts.series import Series

from oracles import btk_enum, btk_enum_table_for_one_t


class TestThm12:
    def test_t2_passes_and_reports_threshold(self):
        check = run_thm12(2, 600)
        assert check.passed and check.witnesses == []
        assert check.info["bound"] == 2990
        assert check.info["largest_negative_n"] == 4

    def test_small_negatives_are_recorded_not_fatal(self):
        check = run_thm12(2, 10)
        assert check.passed  # bound far beyond the scanned order
        assert check.info["asserted_range"] is None
        assert check.info["largest_negative_n"] == 4

    def test_t3_is_informational_below_bound(self):
        check = run_thm12(3, 300)
        assert check.passed and check.info["bound"] == 30692

    def test_t3_full_run_passes(self):
        check = run_thm12(3, 30792)
        assert check.passed and check.witnesses == []
        assert check.info["asserted_range"] == [30692, 30792]
        assert check.info["largest_negative_n"] == 27


class TestThm12Memory:
    """The scan holds T and about a block of each row, never the difference series."""

    @staticmethod
    def _peak_and_t_size(monkeypatch, order):
        """The traced peak of run_thm12(3, order) after T is stored at that order, and T's size."""
        monkeypatch.setattr(series, "_T_STORE", {})
        monkeypatch.setattr(hookgf, "BLOCK", 256)
        T = series.t_regular_gf(3, order).coeffs
        run_thm12(3, 300)  # first calls, off the trace
        tracemalloc.start()
        try:
            check = run_thm12(3, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.passed and check.info["largest_negative_n"] == 27
        return peak, sys.getsizeof(T) + sum(map(sys.getsizeof, T))

    def test_peak_is_a_small_share_of_t_and_barely_grows(self, monkeypatch):
        half, _ = self._peak_and_t_size(monkeypatch, 3000)
        peak, size = self._peak_and_t_size(monkeypatch, 6000)
        # a whole difference series at 6000 takes more than T does
        assert peak < size / 4, (peak, size)
        assert peak < 1.5 * half, (half, peak)


class TestThm13:
    def test_failure_cells_are_exactly_n3_for_t_at_least_3(self):
        check = run_thm13(5, 25)
        assert check.passed
        assert check.witnesses == [(3, 3, -1), (4, 3, -1), (5, 3, -1)]
        assert check.info["oracle_mismatches"] == []

    def test_rejects_tiny_windows(self):
        with pytest.raises(ValueError):
            run_thm13(1, 25)
        with pytest.raises(ValueError):
            run_thm13(4, 2)


class TestOracleWalk:
    """One enumeration walk serves every t; each mismatch stays under its own t."""

    @staticmethod
    def _series_off_by_one(monkeypatch, cells):
        # the series route reads one more than it should at each (t, k, n) cell
        real = checks.btk_series

        def patched(t, k, order):
            s = real(t, k, order)
            wrong = {n for ct, ck, n in cells if (ct, ck) == (t, k) and n <= order}
            return Series([s[n] + (n in wrong) for n in range(order + 1)], order)

        monkeypatch.setattr(checks, "btk_series", patched)

    @staticmethod
    def _per_t_mismatches(ts, n_max, ks):
        # the scan as it ran before, one table per t
        found = []
        for t in ts:
            table = btk_enum_table_for_one_t(t, n_max, ks)
            for k in ks:
                s = checks.btk_series(t, k, n_max)
                found += [
                    (t, k, n, table[k, n], s[n]) for n in range(n_max + 1) if table[k, n] != s[n]
                ]
        return found

    @pytest.mark.parametrize("cell", [(2, 3, 7), (4, 2, 12), (6, 3, 20)])
    def test_one_wrong_cell_is_reported_under_its_t(self, monkeypatch, cell):
        t, k, n = cell
        self._series_off_by_one(monkeypatch, [cell])
        count = btk_enum_table_for_one_t(t, n, (k,))[k, n]
        oracle = run_oracle_crosscheck(6, 20)
        assert not oracle.passed
        assert oracle.witnesses == [(t, k, n, count, count + 1)]
        thm13 = run_thm13(6, 30)
        assert not thm13.passed
        assert thm13.witnesses == [(3, 3, -1), (4, 3, -1), (5, 3, -1), (6, 3, -1)]
        assert thm13.info["oracle_mismatches"] == [(t, k, n, count, count + 1)]

    def test_mismatches_keep_the_per_t_order(self, monkeypatch):
        cells = [(5, 2, 9), (2, 3, 14), (3, 2, 4), (2, 2, 17), (3, 3, 11), (2, 1, 5)]
        self._series_off_by_one(monkeypatch, cells)
        expected = self._per_t_mismatches(range(2, 7), 20, (2, 3))
        assert [m[:3] for m in expected] == sorted(c for c in cells if c[1] > 1)
        assert run_thm13(6, 20).info["oracle_mismatches"] == expected
        expected = self._per_t_mismatches(range(2, 7), 20, (3, 1, 2))
        assert len(expected) == len(cells)
        assert run_oracle_crosscheck(6, 20, (3, 1, 2)).witnesses == sorted(expected)

    @pytest.mark.parametrize("run, n_max", [
        (lambda: run_oracle_crosscheck(6, 20), 20),
        (lambda: run_oracle_crosscheck(21, 20), 20),
        (lambda: run_thm13(5, 30), 30),
        (lambda: run_thm13(12, 60), 40),  # enumerated up to ENUM_LIMIT
    ], ids=["oracle-6", "oracle-21", "thm13-5", "thm13-12"])
    def test_each_run_walks_once(self, monkeypatch, run, n_max):
        walks = []
        real = hookgf.partition_heads

        def counted(n, values):
            walks.append(n)
            return real(n, values)

        monkeypatch.setattr(hookgf, "partition_heads", counted)
        assert run().passed
        assert walks == [n_max]


class TestSignChecks:
    def test_d_exceptions(self):
        check = run_sign_check("D", (2, 3, 4), 200)
        assert check.passed
        assert check.witnesses == [(2, 6, -1)]

    def test_f_exceptions(self):
        check = run_sign_check("F", (2, 3, 4), 200)
        assert check.passed
        assert [(t, n) for t, n, _ in check.witnesses] == [
            (2, 5), (2, 8), (2, 11), (2, 14),
        ]

    def test_e_finds_an_undeclared_negative(self):
        # the scan turns up (2, 6) in addition to the declared (2, 9),
        # so pinning the declared set alone fails
        check = run_sign_check("E", (2, 3, 4), 200)
        assert not check.passed
        assert [(t, n) for t, n, _ in check.witnesses] == [(2, 6), (2, 9)]
        assert (2, 3, -1) in check.info["below_range_negatives"]

    def test_range_restriction_of_declared_set(self):
        # scanning t=3 alone: no declared exceptions in range, none found
        assert run_sign_check("D", (3,), 120).passed

    def test_repeated_t_is_scanned_once(self):
        check = run_sign_check("D", (2, 2), 40)
        assert check.witnesses == [(2, 6, -1)]
        assert check.to_dict() == run_sign_check("D", (2,), 40).to_dict()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_sign_check("A", (2,), 200)
        with pytest.raises(ValueError):
            run_sign_check("D", (2,), 20)
        with pytest.raises(ValueError):
            run_sign_check("D", (), 200)


class TestIdentityAndOracle:
    def test_alternating_identity_passes(self):
        assert run_identity_check("abc", (2, 3, 4, 5, 6), 100).passed

    def test_three_part_identity_fails_only_at_t2(self):
        assert run_identity_check("def", (3, 4, 5, 6), 100).passed
        check = run_identity_check("def", (2,), 100)
        assert not check.passed
        assert check.witnesses[0] == (2, 6, -1)

    def test_oracle_crosscheck(self):
        assert run_oracle_crosscheck(3, 15).passed

    def test_identity_repeated_t_is_scanned_once(self):
        check = run_identity_check("def", (2, 2), 10)
        assert check.witnesses == [(2, 6, -1), (2, 7, -1), (2, 8, -1), (2, 9, -1), (2, 10, -2)]
        assert check.to_dict() == run_identity_check("def", (2,), 10).to_dict()

    @pytest.mark.parametrize("which,k", [("abc", 1), ("def", 3)])
    def test_identity_looks_its_hook_difference_up_when_called(self, monkeypatch, which, k):
        # a rebinding on the module, as a test's monkeypatch or a tracer makes, is the one run
        calls = []
        difference = checks.hook_difference_table

        def spy(t, k, order):
            calls.append((t, k, order))
            return difference(t, k, order)

        monkeypatch.setattr(checks, "hook_difference_table", spy)
        assert run_identity_check(which, (3, 4), 20).passed
        assert calls == [(3, k, 20), (4, k, 20)]

    def test_oracle_repeated_k_is_scanned_once(self):
        check = run_oracle_crosscheck(3, 8, (2, 2))
        assert check.passed and check.witnesses == []
        assert check.to_dict() == run_oracle_crosscheck(3, 8, (2,)).to_dict()

    def test_oracle_rejects_empty_grids(self):
        for args in ((1, 15), (3, -1), (3, 15, ())):
            with pytest.raises(ValueError):
                run_oracle_crosscheck(*args)

    def test_rejects_unknown_identity(self):
        with pytest.raises(ValueError, match=r"^identity checks are 'abc' or 'def', not 'xyz'$"):
            run_identity_check("xyz", (2,), 100)

    @pytest.mark.parametrize("which", ["abc", "def"])
    def test_identity_rejects_empty_t_values(self, which):
        with pytest.raises(ValueError, match="at least one t"):
            run_identity_check(which, (), 100)


class TestEmit:
    def test_json_is_deterministic_and_parses(self):
        check = run_sign_check("D", (2,), 120)
        out1, out2 = io.StringIO(), io.StringIO()
        emit(check, "json", out1)
        emit(check, "json", out2)
        assert out1.getvalue() == out2.getvalue()
        payload = json.loads(out1.getvalue())
        assert payload["which"] == "sign_D" and payload["passed"] is True

    def test_csv_and_human_render_reports(self):
        report = verify_injection("epsilon", 2, 18)
        for fmt in ("csv", "human"):
            out = io.StringIO()
            emit(report, fmt, out)
            assert "epsilon" in out.getvalue()

    def test_list_payload(self):
        reports = [verify_injection("epsilon", 2, n) for n in (18, 30)]
        out = io.StringIO()
        emit(reports, "json", out)
        assert len(json.loads(out.getvalue())) == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(run_sign_check("D", (2,), 120), "yaml", io.StringIO())

    def test_records_built_without_lists_share_no_list_or_dict(self):
        # a NamedTuple default is one object for every record, so each list
        # or dict field defaults to a read-only empty value instead
        pairs = [
            [checks.TheoremCheck(which, {}, True) for which in ("a", "b")],
            [injections.VerificationReport("phi", 2, n, 0, 0) for n in (1, 2)],
        ]
        for first, second in pairs:
            assert not [x for x, y in zip(first, second) if x is y and isinstance(x, (list, dict))]
        check = pairs[0][0]
        assert check.to_dict()["witnesses"] == [] and check.to_dict()["info"] == {}
        assert check.to_dict()["info"] is not pairs[0][1].to_dict()["info"]
        with pytest.raises(TypeError):
            check.info["key"] = 1
        assert pairs[1][0].to_dict()["violations"] == []


class TestCli:
    def test_count_methods_agree(self, capsys):
        assert cli.main(["count", "--t", "2", "--k", "2", "--n", "12"]) == 0
        enum_out = capsys.readouterr().out
        assert cli.main(["count", "--t", "2", "--k", "2", "--n", "12", "--method", "gf"]) == 0
        gf_out = capsys.readouterr().out
        assert enum_out == gf_out and enum_out.strip().isdigit()

    def test_series_csv(self, capsys):
        assert cli.main(["series", "--name", "bt1", "--t", "2", "--order", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[1] == "0,0" and lines[2] == "1,1"

    def test_series_decomposition_name(self, capsys):
        assert cli.main(["series", "--name", "D", "--t", "2", "--order", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[6 + 1] == "6,-1"

    def test_verify_identity_exit_codes(self, capsys):
        assert cli.main(["verify", "identity", "--which", "abc", "--t", "2", "--order", "80"]) == 0
        capsys.readouterr()
        # a genuinely failing check drives the failure exit path
        assert cli.main(["verify", "identity", "--which", "def", "--t", "2", "--order", "80"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_injection(self, capsys):
        code = cli.main(["verify", "injection", "--map", "phi1", "--t", "2", "--n-max", "20", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in payload)
        assert payload[0]["map"] == "phi1"

    def test_verify_theorem_subcommands(self, capsys):
        assert cli.main(["verify", "theorem", "--which", "d", "--t-max", "3", "--order", "120"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "theorem", "--which", "thm13", "--t-max", "4", "--n-max", "15"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "theorem", "--which", "oracle", "--t-max", "3", "--n-max", "12"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "theorem", "--which", "thm12", "--t", "2", "--order", "400"]) == 0
        capsys.readouterr()
        # E pins an incomplete exception set, so the check reports failure
        assert cli.main(["verify", "theorem", "--which", "e", "--t-max", "2", "--order", "120"]) == 1
        capsys.readouterr()

    def test_verify_theorem_full_extends_to_bound(self, capsys):
        code = cli.main(
            ["verify", "theorem", "--which", "thm12", "--t", "2", "--full", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["order"] >= payload["info"]["bound"]
        assert payload["info"]["asserted_range"] is not None

    def test_thm12_t2_full_asserts_up_to_bound_plus_margin(self, capsys):
        # t = 2 has bound 2990; --full scans 100 past it
        argv = "verify theorem --which thm12 --t 2 --full --format json"
        assert cli.main(argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["info"]["asserted_range"] == [2990, 3090]

    def test_usage_error_exits_2(self, capsys):
        # series writes CSV only and takes no --format
        for argv in ("count --bogus-flag 1", "series --name bt1 --t 2 --order 5 --format csv"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv.split())
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "usage" in captured.err

    @pytest.mark.parametrize("argv", [
        "verify injection --map tau --t 3 --n-max 3",
        "verify injection --map phi --t 2 --n-max -1",
        "verify injection --map phi2 --t 4 --n-max 40",  # every cell's domain is empty
        "verify injection --map phi --t 2 --n-max 0",
        "verify theorem --which d --t-max 1",
        "verify theorem --which oracle --t-max 1 --n-max -1",
        "verify theorem --which oracle --k-max 0",
        # an explicit zero is the value asked for, not a request for the default
        "verify theorem --which d --t-max 0",
        "verify theorem --which d --t-max 2 --order 0",
        "verify theorem --which thm13 --n-max 0",
        "verify theorem --which thm13 --t-max 0",
        "verify theorem --which thm12 --t 1 --full",  # the theorem and its bound need t >= 2
        "verify theorem --which e --order 29",  # sign checks scan to order 30 at least
        "verify theorem --which e --t-max 1",  # would scan no t at all
    ])
    def test_empty_scan_exits_2(self, capsys, argv):
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "min()" not in lines[0]

    @pytest.mark.parametrize("argv,flags", [
        ("--which thm13 --order 5", ["--order"]),
        ("--which d --t 3", ["--t"]),
        ("--which oracle --full", ["--full"]),
        ("--which thm12 --k-max 4", ["--k-max"]),
        ("--which thm13 --t-max 3 --n-max 10 --order 5 --t 9 --full", ["--t", "--order", "--full"]),
    ], ids=["thm13-order", "d-t", "oracle-full", "thm12-k-max", "thm13-three-flags"])
    def test_unread_flag_exits_2(self, capsys, argv, flags):
        assert cli.main(["verify", "theorem", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith(" does not read " + ", ".join(flags))

    def test_theorem_check_flags_are_the_parser_flags(self):
        # an entry naming a flag the parser lacks would always get its default
        parser = cli.build_parser()
        parser.parse_args("verify theorem --which d".split())
        theorem = _built(_built(parser)["verify"])["theorem"]
        dests = {a.dest for a in theorem._actions} - {"help", "which", "format"}
        assert dests == {name for spec in checks.CHECKS.values() for name in spec.defaults}

    @pytest.mark.parametrize("argv,code,t_max", [
        ("", 0, 3), ("--t-max 5", 0, 5), ("--t-max 2", 1, 2), ("--t-max 0", 1, 0),
    ])
    def test_a_registered_check_runs_through_main(self, capsys, monkeypatch, argv, code, t_max):
        # one CHECKS entry is the whole of a new check: cli.py is not touched
        def scratch(t_max):
            return checks.TheoremCheck("scratch", {"t_max": t_max}, passed=t_max > 2)

        monkeypatch.setitem(checks.CHECKS, "scratch", checks.CheckSpec({"t_max": 3}, scratch))
        argv = ["verify", "theorem", "--which", "scratch", *argv.split(), "--format", "json"]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["params"] == {"t_max": t_max} and captured.err == ""

    def test_a_registered_check_rejects_what_it_does_not_read(self, capsys, monkeypatch):
        spec = checks.CheckSpec({"t_max": 3}, lambda t_max: pytest.fail("ran"))
        monkeypatch.setitem(checks.CHECKS, "scratch", spec)
        assert cli.main("verify theorem --which scratch --order 5".split()) == 2
        assert capsys.readouterr() == ("", "error: --which scratch does not read --order\n")

    def test_e_scan_lists_every_negative_cell(self, capsys):
        # the exception table: (2, 6) and (2, 9) in range, (2, 3) below n = 4
        argv = "verify theorem --which e --t-max 2 --order 40 --format json"
        assert cli.main(argv.split()) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witnesses"] == [[2, 6, -1], [2, 9, -1]]
        assert payload["info"]["below_range_negatives"] == [[2, 3, -1]]

    def test_oracle_explicit_zero_n_max_is_kept(self, capsys):
        argv = "verify theorem --which oracle --t-max 2 --n-max 0 --k-max 1 --format json"
        assert cli.main(argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["n_max"] == 0 and payload["passed"]

    def test_oracle_beyond_every_hook_length_passes(self, capsys):
        # k up to 100 at n <= 10: the series route must not derive what is 0
        argv = "verify theorem --which oracle --k-max 100 --n-max 10 --format json"
        assert cli.main(argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["ks"] == list(range(1, 101)) and payload["passed"]

    def test_domain_error_exits_2(self, capsys):
        assert cli.main(["series", "--name", "bt1", "--t", "1", "--order", "5"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        ("count --t 2 --k 2 --n -1 --method gf", "n must be nonnegative"),
        ("count --t 2 --k 0 --n 5 --method gf", "k must be at least 1"),
    ])
    def test_count_gf_bad_input_exits_2(self, capsys, argv, message):
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        ("count --t 2 --k 2 --n -1 --method enum", "n must be nonnegative"),
        ("count --t 2 --k 0 --n -1 --method enum", "k must be at least 1"),
        ("count --t 1 --k 0 --n -1 --method enum", "t must be at least 2"),
    ])
    def test_count_enum_bad_input_exits_2(self, capsys, argv, message):
        # the table names a negative n as its n_max; the command names it as n
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_count_enum_matches_the_per_partition_count(self, capsys):
        for t in (2, 3, 5):
            for k in (1, 2, 3, 7, 20):
                for n in (0, 1, 5, 12, 19):
                    argv = f"count --t {t} --k {k} --n {n} --method enum"
                    assert cli.main(argv.split()) == 0
                    assert capsys.readouterr() == (f"{btk_enum(t, k, n)}\n", "")

    def test_oracle_reaches_k8(self, capsys):
        argv = "verify theorem --which oracle --t-max 6 --n-max 30 --k-max 8 --format json"
        assert cli.main(argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["ks"] == list(range(1, 9)) and payload["witnesses"] == []

    def test_broken_map_entry_exits_1(self, capsys, monkeypatch):
        # every image gains a part 1, so each cell with a domain member fails
        spec = injections.MAPS["tau"]._replace(
            forward={None: lambda p, t: p.trade((), (1,))}, inverse={}
        )
        monkeypatch.setitem(injections.MAPS, "broken", spec)
        argv = "verify injection --map broken --t 3 --n-max 9 --format json"
        assert cli.main(argv.split()) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in payload] == list(range(4, 10))
        assert not all(r["passed"] for r in payload)

    def test_write_error_exits_2(self, capsys, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert cli.main(["count", "--t", "2", "--k", "2", "--n", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("i/o error: ")

    def test_python_m_entry_point(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "hookcounts", "count", "--t", "2", "--k", "2", "--n", "12"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "34\n", "")

    def test_python_m_help_reads_sys_argv(self, capsys, monkeypatch):
        # with no argv given, main parses sys.argv[1:]: the nested command's
        # flags are built from it as from an explicit list
        src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        done = subprocess.run(
            [sys.executable, "-m", "hookcounts", "verify", "theorem", "-h"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert "--k-max K_MAX" in done.stdout and "--format {json,csv,human}" in done.stdout
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["verify", "theorem", "-h"])
        assert capsys.readouterr().out == done.stdout

    def test_warning_is_a_stderr_line_under_w_error(self):
        # a warning filter set to error neither raises out of main nor
        # changes the exit code, which stays the check's
        src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        for t, code in ((2, 1), (3, 0)):
            done = subprocess.run(
                [sys.executable, "-W", "error", "-m", "hookcounts", "verify", "injection",
                 "--map", "gamma", "--t", str(t), "--n-max", "8", "--format", "csv"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == code
            assert done.stdout.startswith("map,t,n,domain_size,image_size,passed\n")
            assert done.stderr == f"warning: gamma images need not stay {t}-regular for t < 4\n"

    def test_rejected_range_prints_no_warning(self, capsys):
        # gamma at t = 3 warns only for a range it runs
        argv = "verify injection --map gamma --t 3 --n-max -1"
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma is verified for n >= 0; n_max=-1 scans nothing\n"

    def test_reruns_are_byte_identical(self, capsys):
        args = ["verify", "theorem", "--which", "thm13", "--t-max", "4", "--n-max", "15", "--format", "json"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        assert capsys.readouterr().out == first


def _built(parser):
    """Each command of ``parser`` by name: its built parser, or None if not built yet."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: command.parser for name, command in action.choices.items()}


def _flags(parser):
    return [a.option_strings for a in parser._actions]


ONE_OF_EACH = {
    "count --t 2 --k 1 --n 14 --method gf": {
        "command": "count", "t": 2, "k": 1, "n": 14, "method": "gf", "run": cli._cmd_count,
    },
    "series --name A --t 3 --order 40": {
        "command": "series", "name": "A", "t": 3, "order": 40, "run": cli._cmd_series,
    },
    "verify identity --which abc --t 2 --order 60 --format json": {
        "command": "verify", "verify_what": "identity", "which": "abc", "t": 2, "order": 60,
        "format": "json", "run": cli._cmd_verify_identity,
    },
    "verify injection --map tau --t 3 --n-max 16": {
        "command": "verify", "verify_what": "injection", "map": "tau", "t": 3, "n_max": 16,
        "format": "human", "run": cli._cmd_verify_injection,
    },
    "verify theorem --which d --t-max 3 --order 60": {
        "command": "verify", "verify_what": "theorem", "which": "d", "t": None, "order": 60,
        "t_max": 3, "n_max": None, "k_max": None, "full": None, "format": "human",
        "run": cli._cmd_verify_theorem,
    },
}


class TestParser:
    def test_commands_argv_does_not_name_are_not_built(self):
        parser = cli.build_parser()
        parser.parse_args("count --t 2 --k 1 --n 5".split())
        commands = _built(parser)
        assert list(commands) == ["count", "series", "verify"]
        assert _flags(commands["count"]) == [["-h", "--help"], ["--t"], ["--k"], ["--n"], ["--method"]]
        assert commands["series"] is commands["verify"] is None

    def test_verify_builds_only_the_command_named(self):
        parser = cli.build_parser()
        parser.parse_args("verify theorem --which d".split())
        commands = _built(parser)
        assert commands["count"] is commands["series"] is None
        nested = _built(commands["verify"])
        assert list(nested) == ["identity", "injection", "theorem"]
        assert nested["identity"] is nested["injection"] is None
        assert ["--k-max"] in _flags(nested["theorem"])

    @pytest.mark.parametrize("line,progs", [
        ("-h", ["hooks"]),
        ("verify -h", ["hooks", "hooks verify"]),
        ("count --t 2 --k 1 --n 5", ["hooks", "hooks count"]),
        ("verify theorem --which d --t-max 3 --order 30", ["hooks", "hooks verify", "hooks verify theorem"]),
        ("verify bogus", ["hooks", "hooks verify"]),
        ("bogus", ["hooks"]),
    ])
    def test_parsers_built_per_command_line(self, capsys, monkeypatch, line, progs):
        # one parser per level of the command line, and none for a command
        # argv does not name: listing a command reads only its name and help
        init, built = argparse.ArgumentParser.__init__, []

        def counting_init(self, **kwargs):
            built.append(kwargs["prog"])
            init(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            cli.main(line.split())
        except SystemExit:
            pass
        capsys.readouterr()
        assert built == progs

    def test_cli_reads_no_argparse_private(self):
        # laziness goes through add_subparsers(parser_class=...), argparse's
        # public hook, not through the sub-parser action's private state
        tree = ast.parse(inspect.getsource(cli))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        private = {"_name_parser_map", "_choices_actions", "_ChoicesPseudoAction", "_prog_prefix"}
        assert not names & private

    def test_one_parser_parses_several_command_lines(self):
        parser = cli.build_parser()
        for line, expected in ONE_OF_EACH.items():
            assert vars(parser.parse_args(line.split())) == expected

    @pytest.mark.parametrize("line", ONE_OF_EACH)
    def test_main_through_a_substituted_build_parser(self, capsys, monkeypatch, line):
        # the benchmark's tracer swaps build_parser for a zero-argument
        # wrapper and rebinds parse_args on the parser it returns
        build_parser, parsed = cli.build_parser, []

        def traced_build_parser():
            parser = build_parser()
            parse_args = parser.parse_args

            def traced_parse_args(argv):
                parsed.append(parse_args(argv))
                return parsed[-1]

            parser.parse_args = traced_parse_args
            return parser

        monkeypatch.setattr(cli, "build_parser", traced_build_parser)
        assert cli.main(line.split()) == 0
        capsys.readouterr()
        assert [vars(args) for args in parsed] == [ONE_OF_EACH[line]]


def _choices(line, dest):
    """The choices of ``dest`` on the parser of the command that a hooks line names."""
    parser = command = cli.build_parser()
    parser.parse_args(line.split())
    for word in line.split():
        if word.startswith("-"):
            break
        command = _built(command)[word]
    (action,) = [a for a in command._actions if a.dest == dest]
    return action.choices


# each function that refuses t = 1 through series.check_t
T_RULE_SITES = {
    "t_regular_gf": lambda: series.t_regular_gf(1, 10),
    "btk_series": lambda: hookgf.btk_series(1, 1, 10),
    "btk_enum_table": lambda: hookgf.btk_enum_table((1,), 10, (1,)),
    "decomposition_series": lambda: hookgf.decomposition_series("A", 1, 10),
    "set_cardinality_series": lambda: hookgf.set_cardinality_series("O", 1, 10),
    "Family.predicates": lambda: injections.FAMILIES["O"].predicates(1),
    "o5_weight_cap": lambda: injections.o5_weight_cap(1),
}

# a hooks line and the flag whose choices it reads from one home, or a t-rule site
SINGLE_SOURCE = [
    *[
        pytest.param(line, "format", id=f"format-{line.split()[1]}")
        for line in (
            "verify identity --which abc --t 2",
            "verify injection --map phi --t 2 --n-max 9",
            "verify theorem --which d",
        )
    ],
    pytest.param("series --name A --t 2 --order 5", "name", id="series-name"),
    *[pytest.param(None, site, id=f"t-rule-{site}") for site in T_RULE_SITES],
]


@pytest.mark.parametrize("line,site", SINGLE_SOURCE)
def test_each_decision_is_read_from_its_one_home(line, site):
    # checks.FORMATS, hookgf.PIECES and series.check_t each state one decision;
    # the flags and functions below read it there, so none can drift from it
    if site == "format":
        assert _choices(line, "format") == tuple(checks.FORMATS) == ("json", "csv", "human")
        with pytest.raises(ValueError, match="^unknown format 'yaml'$"):
            emit(checks.TheoremCheck("x", {}, True), "yaml", io.StringIO())
    elif site == "name":
        assert _choices(line, "name") == ("bt1", "bt2", "bt3", *hookgf.PIECES)
        assert tuple(hookgf.PIECES) == tuple("ABCDEF")
    else:
        series.check_t(2)
        with pytest.raises(ValueError) as home:
            series.check_t(1)
        with pytest.raises(ValueError) as raised:
            T_RULE_SITES[site]()
        assert str(raised.value) == str(home.value) == "t must be at least 2"


# run the hooks command line in a fresh interpreter that imports hookcounts
# from this checkout (``-I`` drops PYTHONPATH, so the path goes in by hand)
RUN_HOOKS = "import sys; sys.path.insert(0, sys.argv.pop(1)); from hookcounts.cli import run; run()"


def _interpreter(name):
    """The interpreter ``name`` (``python3.X``) if one runs and is that version, else None.

    It is looked for on PATH, then in pyenv's install directory (``$PYENV_ROOT``,
    by default ``~/.pyenv``), where an interpreter can run although its shim
    on PATH does not.
    """
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    version = name.removeprefix("python")
    installed = sorted(glob.glob(os.path.join(root, "versions", f"{version}.*", "bin", name)))
    for exe in filter(None, [shutil.which(name), *installed]):
        probe = subprocess.run(
            [exe, "-I", "-c", "import sys; print('python%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == name:
            return exe
    return None


SUPPORTED = ["python3.10", "python3.11", "python3.12", "python3.13"]


@pytest.mark.parametrize("name", SUPPORTED)
def test_every_supported_interpreter_runs_each_command(capsys, name):
    # the lazy commands rely on argparse calling parse_known_args only on the
    # sub-parser a word selects, which it made through parser_class; each
    # interpreter must give the exit code and stdout of the in-process main.
    # Help and error text differ between Python versions, so only command
    # output is compared.  The --bogus line checks that a command hands the
    # words it does not read back to the top-level parser.
    exe = _interpreter(name)
    if exe is None:
        pytest.skip(f"no runnable {name} on PATH or under pyenv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
    for line in [*ONE_OF_EACH, "verify bogus", "count --t 2 --k 1 --n 5 --bogus"]:
        try:
            code = cli.main(line.split())
        except SystemExit as exc:
            code = exc.code
        expected = capsys.readouterr().out
        done = subprocess.run(
            [exe, "-I", "-c", RUN_HOOKS, src, *line.split()],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (code, expected), line


# print the modules that importing hookcounts.cli adds to a bare interpreter
CLI_IMPORTS = (
    "import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
    "import hookcounts.cli; print(*sorted(set(sys.modules) - bare))"
)
# dataclasses loads inspect, and with it dis, ast and tokenize; json is needed
# only by a --format json line, whose branch of checks.emit imports it
NOT_AT_START = {"dataclasses", "inspect", "json"}
# JSON lines with the exit code and stdout sha256 that tests/test_cli_goldens.py pins
JSON_GOLDENS = {
    "verify injection --map gamma --t 2 --n-max 12 --format json":
        (1, "58ea45493bf6aaee4887096827b63b04b2673f794ef3e656574ad47836dabc57"),
    "verify theorem --which thm12 --t 2 --order 400 --format json":
        (0, "2f75025e151278840c94920a1ce7f5f29a83008c885ed94422fd6bc6f37a599a"),
}


@pytest.mark.parametrize("name", SUPPORTED)
def test_cli_import_leaves_out_dataclasses_inspect_and_json(name):
    # each hooks line starts a fresh interpreter, so what importing cli
    # loads is paid on every run; the JSON lines then load json themselves
    exe = _interpreter(name)
    if exe is None:
        pytest.skip(f"no runnable {name} on PATH or under pyenv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookcounts.__file__)))
    added = subprocess.run(
        [exe, "-I", "-c", CLI_IMPORTS, src], capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert "hookcounts.cli" in added and not NOT_AT_START & set(added)
    for line, pinned in JSON_GOLDENS.items():
        done = subprocess.run([exe, "-I", "-c", RUN_HOOKS, src, *line.split()], capture_output=True, timeout=120)
        assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) == pinned, line
