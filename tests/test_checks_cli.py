import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import hookcounts
from hookcounts import cli, injections
from hookcounts.checks import (
    emit,
    run_identity_check,
    run_oracle_crosscheck,
    run_sign_check,
    run_thm12,
    run_thm13,
)
from hookcounts.injections import verify_injection


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

    def test_oracle_repeated_k_is_scanned_once(self):
        check = run_oracle_crosscheck(3, 8, (2, 2))
        assert check.passed and check.witnesses == []
        assert check.to_dict() == run_oracle_crosscheck(3, 8, (2,)).to_dict()

    def test_oracle_rejects_empty_grids(self):
        for args in ((1, 15), (3, -1), (3, 15, ())):
            with pytest.raises(ValueError):
                run_oracle_crosscheck(*args)

    def test_rejects_unknown_identity(self):
        with pytest.raises(ValueError):
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

    def test_oracle_reaches_k8(self, capsys):
        argv = "verify theorem --which oracle --t-max 6 --n-max 30 --k-max 8 --format json"
        assert cli.main(argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["ks"] == list(range(1, 9)) and payload["witnesses"] == []

    def test_broken_map_entry_exits_1(self, capsys, monkeypatch):
        # every image gains a part 1, so each cell with a domain member fails
        spec = dataclasses.replace(
            injections.MAPS["tau"], forward={None: lambda p, t: p.trade((), (1,))}, inverse={}
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
