"""Exit codes, output formats, and byte determinism of the command line."""

from __future__ import annotations

import csv
import json

import pytest

from ncgeo.cli import _to_json, _window_list, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_numeric_needs_json(capsys, command):
    # the numeric channel lives only in the JSON report; in text or CSV the
    # flag would be silently dropped, so it is refused instead
    for fmt in ([], ["--format", "text"], ["--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main([command, "--numeric", "0.3", *fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--numeric" in captured.err


class TestVerifyProjections:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "verify-projections")
        assert code == 0
        assert "5/5 projections verified" in out

    def test_negative_control(self, capsys):
        code, out = run(capsys, "verify-projections", "--corrupt-r")
        assert code == 1
        assert "r: FAIL" in out

    def test_json(self, capsys):
        code, out = run(capsys, "verify-projections", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["header"]["schema"] == "ncgeo/1"
        assert data["all_ok"] is True
        assert [c["name"] for c in data["checks"]] == ["one", "p", "q0", "q1", "r"]

    def test_numeric_channel_does_not_gate(self, capsys):
        code, out = run(capsys, "verify-projections", "--numeric", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert all(c["numeric_defect"] == 0.0 for c in data["checks"])
        code, _ = run(capsys, "verify-projections", "--corrupt-r", "--numeric", "--format", "json")
        assert code == 1

    def test_numeric_outside_json_is_usage_error(self, capsys):
        assert_numeric_needs_json(capsys, "verify-projections")

    def test_nan_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-projections", "--numeric", "nan", "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--numeric" in captured.err


class TestPairingTable:
    def test_text_and_exit(self, capsys):
        code, out = run(capsys, "pairing-table")
        assert code == 0
        assert "projection" in out

    def test_csv_shape(self, capsys):
        code, out = run(capsys, "pairing-table", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 6
        assert lines[0].startswith("projection,S_tau")

    def test_json_annotated(self, capsys):
        code, out = run(capsys, "pairing-table", "--format", "json", "--annotate")
        data = json.loads(out)
        assert code == 0
        assert len(data["cells"]) == 30
        assert len(data["discrepancies"]) == 8

    def test_numeric_outside_json_is_usage_error(self, capsys):
        assert_numeric_needs_json(capsys, "pairing-table")

    def test_infinite_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairing-table", "--numeric", "inf", "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--numeric" in captured.err

    def test_huge_angle_is_usage_error(self, capsys):
        # 1e308 used to overflow inside the numeric evaluation
        with pytest.raises(SystemExit) as exc:
            main(["pairing-table", "--numeric", "1e308"])
        assert exc.value.code == 2
        assert "--numeric" in capsys.readouterr().err
        code, out = run(capsys, "pairing-table", "--numeric", "1e6", "--format", "json")
        assert code == 0
        assert json.loads(out)["numeric_theta"] == 1e6

    def test_byte_identical(self, capsys):
        _, a = run(capsys, "pairing-table", "--format", "json")
        _, b = run(capsys, "pairing-table", "--format", "json")
        assert a == b


class TestDimensionReport:
    def test_nullities(self, capsys):
        code, out = run(capsys, "dimension-report", "--window", "3,4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        got = {(r["operator"], r["window"]): r["nullity"] for r in data["reports"]}
        assert got == {
            ("twisted_alpha1", 3): 4,
            ("twisted_alpha1", 4): 4,
            ("alpha1", 3): 1,
            ("alpha1", 4): 1,
        }

    def test_window_too_small_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension-report", "--window", "2"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension-report", "--no-such-flag"])
        assert exc.value.code == 2

    def test_non_integer_window_is_usage_error_with_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension-report", "--window", "abc"])
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err

    def test_empty_window_token_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension-report", "--window", "3,,4"])
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err

    def test_window_past_limit_is_usage_error(self, capsys):
        for command in ("dimension-report", "cohomology-report"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--window", "33"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--window" in err and "32" in err
        assert _window_list("3,32") == [3, 32]

    def test_repeated_window_is_usage_error(self, capsys):
        # a repeated radius would print the same report twice
        for command in ("dimension-report", "cohomology-report"):
            for text in ("3,3", "3,5,4,5"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--window", text])
                assert exc.value.code == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "--window" in captured.err
                assert f"window radius {text[-1]} is repeated" in captured.err
        assert _window_list("5,3,4") == [5, 3, 4]

    def test_numeric_is_not_a_flag_of_the_kernel_reports(self, capsys):
        # neither report carries a numeric channel, so the flag is unknown
        for command in ("dimension-report", "cohomology-report"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--numeric", "0.3", "--format", "json"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--numeric" in captured.err


class TestCohomologyReport:
    def test_small_run(self, capsys):
        code, out = run(
            capsys,
            "cohomology-report", "--window", "3", "--h1-trials", "2", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["all_ok"] is True
        assert data["h1_trials"]["passed"] == 2
        statuses = {
            (r["complex"], tuple(r["site"]), r["radius"]): r["status"]
            for r in data["membership_probes"]
        }
        assert statuses[("twisted", (0, 0), 4)] == "unsolvable"
        assert statuses[("untwisted", (0, 2), 4)] == "solved"
        assert statuses[("untwisted", (-1, -1), 4)] == "solved"

    def test_negative_trial_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology-report", "--h1-trials", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--h1-trials" in captured.err

    def test_deterministic(self, capsys):
        argv = ["cohomology-report", "--window", "3", "--h1-trials", "3",
                "--seed", "11", "--format", "json"]
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b


class TestOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(
            capsys, "verify-projections", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["all_ok"] is True

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["pairing-table", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(target) in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_json_never_carries_non_finite_numbers(self):
        with pytest.raises(ValueError):
            _to_json({"x": float("nan")})

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


def lines(*rows):
    return "".join(row + "\n" for row in rows)


class TestCsvShape:
    """Every CSV row of every command, read back by csv.reader, has the
    header's field count: a field holding a comma is quoted."""

    def test_every_row_has_the_header_width(self, capsys):
        for argv in (
            ("verify-projections",),
            ("verify-projections", "--corrupt-r"),
            ("pairing-table",),
            ("dimension-report", "--window", "3,4"),
            ("cohomology-report", "--window", "3,4", "--h1-trials", "2"),
        ):
            _, out = run(capsys, *argv, "--format", "csv")
            header, *rows = csv.reader(out.splitlines())
            assert rows, argv
            assert {len(row) for row in rows} == {len(header)}, argv


class TestPinnedBytes:
    """Exact text and CSV output, written out from the documented formats."""

    def test_verify_projections(self, capsys):
        assert run(capsys, "verify-projections") == (0, lines(
            "one: ok", "p: ok", "q0: ok", "q1: ok", "r: ok", "5/5 projections verified",
        ))
        assert run(capsys, "verify-projections", "--format", "csv") == (0, lines(
            "name,ok", "one,true", "p,true", "q0,true", "q1,true", "r,true",
        ))

    def test_verify_projections_corrupt_r(self, capsys):
        assert run(capsys, "verify-projections", "--corrupt-r") == (1, lines(
            "one: ok", "p: ok", "q0: ok", "q1: ok", "r: FAIL", "4/5 projections verified",
        ))
        assert run(capsys, "verify-projections", "--corrupt-r", "--format", "csv") == (1, lines(
            "name,ok", "one,true", "p,true", "q0,true", "q1,true", "r,false",
        ))

    def test_dimension_report(self, capsys):
        assert run(capsys, "dimension-report", "--window", "3") == (0, lines(
            "twisted_alpha1 window 3: nullity 4 (expected 4) ok",
            "alpha1 window 3: nullity 1 (expected 1) ok",
        ))
        assert run(capsys, "dimension-report", "--window", "3", "--format", "csv") == (0, lines(
            "operator,window,nullity,expected,ok",
            "twisted_alpha1,3,4,4,true",
            "alpha1,3,1,1,true",
        ))

    def test_pairing_table(self, capsys):
        # columns padded to their widest cell, two spaces apart, no trailing blanks
        assert run(capsys, "pairing-table") == (0, lines(
            "projection  S_tau  S_D11  S_D00  S_D01  S_D10  phi",
            "one         1      0      0      0      0      0",
            "p           1/2    0      1/2    0      0      0",
            "q0          1/2    0      0      0      -1/2   0",
            "q1          1/2    0      0      -1/2   0      0",
            "r           1/2    -u/2   0      0      0      0",
        ))
        assert run(capsys, "pairing-table", "--format", "csv") == (0, lines(
            "projection,S_tau,S_D11,S_D00,S_D01,S_D10,phi",
            "one,1,0,0,0,0,0",
            "p,1/2,0,1/2,0,0,0",
            "q0,1/2,0,0,0,-1/2,0",
            "q1,1/2,0,0,-1/2,0,0",
            "r,1/2,-u/2,0,0,0,0",
        ))

    def test_cohomology_report(self, capsys):
        argv = ("cohomology-report", "--window", "3", "--h1-trials", "2")
        note = (
            "  note: recorded sources list this site as the non-image generator; in the "
            "coefficient indexing used here that generator sits at (1,1), and the "
            "(-1,-1) delta has the explicit preimage (delta(-1,-2)/(u^-2 - u^2), 0)"
        )
        text = lines(
            "kernel twisted_alpha1 window 3: nullity 4 (expected 4, quoted constant) ok",
            "kernel alpha1 window 3: nullity 1 (expected 1, quoted constant) ok",
            "generator D00: in kernel ok",
            "generator D01: in kernel ok",
            "generator D10: in kernel ok",
            "generator D11: in kernel ok",
            "pullback twisted_deg2_scaling_00: ok",
            "pullback twisted_deg2_scaling_10: ok",
            "pullback twisted_deg2_scaling_01: ok",
            "pullback twisted_deg2_scaling_11: ok",
            "pullback untwisted_deg2_fixes_(-1,-1): ok",
            "pullback untwisted_deg1_negates_first: ok",
            "pullback untwisted_deg1_negates_second: ok",
            "probe untwisted delta(0, 2) radius 4: solved (expected solved) ok",
            "probe untwisted delta(0, 2) radius 5: solved (expected solved) ok",
            "probe untwisted delta(0, 2) radius 6: solved (expected solved) ok",
            "probe untwisted delta(2, 0) radius 4: solved (expected solved) ok",
            "probe untwisted delta(2, 0) radius 5: solved (expected solved) ok",
            "probe untwisted delta(2, 0) radius 6: solved (expected solved) ok",
            "probe twisted delta(0, 0) radius 4: unsolvable (expected unsolvable) ok",
            "probe twisted delta(0, 0) radius 5: unsolvable (expected unsolvable) ok",
            "probe twisted delta(0, 0) radius 6: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 0) radius 4: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 0) radius 5: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 0) radius 6: unsolvable (expected unsolvable) ok",
            "probe twisted delta(0, 1) radius 4: unsolvable (expected unsolvable) ok",
            "probe twisted delta(0, 1) radius 5: unsolvable (expected unsolvable) ok",
            "probe twisted delta(0, 1) radius 6: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 1) radius 4: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 1) radius 5: unsolvable (expected unsolvable) ok",
            "probe twisted delta(1, 1) radius 6: unsolvable (expected unsolvable) ok",
            "probe untwisted delta(1, 1) radius 4: unsolvable (expected unsolvable) ok",
            "probe untwisted delta(1, 1) radius 5: unsolvable (expected unsolvable) ok",
            "probe untwisted delta(1, 1) radius 6: unsolvable (expected unsolvable) ok",
            "probe untwisted delta(-1, -1) radius 4: solved (expected solved) ok",
            note,
            "probe untwisted delta(-1, -1) radius 5: solved (expected solved) ok",
            "probe untwisted delta(-1, -1) radius 6: solved (expected solved) ok",
            "h1 trivialization: 2/2 zero residuals (seed 7, window 10) ok",
        )
        csv = lines(
            "section,name,computed,expected,ok",
            "kernel,twisted_alpha1@3,4,4,true",
            "kernel,alpha1@3,1,1,true",
            "generator,D00,true,true,true",
            "generator,D01,true,true,true",
            "generator,D10,true,true,true",
            "generator,D11,true,true,true",
            "pullback,twisted_deg2_scaling_00,true,true,true",
            "pullback,twisted_deg2_scaling_10,true,true,true",
            "pullback,twisted_deg2_scaling_01,true,true,true",
            "pullback,twisted_deg2_scaling_11,true,true,true",
            'pullback,"untwisted_deg2_fixes_(-1,-1)",true,true,true',
            "pullback,untwisted_deg1_negates_first,true,true,true",
            "pullback,untwisted_deg1_negates_second,true,true,true",
            'probe,"untwisted@(0, 2)@r4",solved,solved,true',
            'probe,"untwisted@(0, 2)@r5",solved,solved,true',
            'probe,"untwisted@(0, 2)@r6",solved,solved,true',
            'probe,"untwisted@(2, 0)@r4",solved,solved,true',
            'probe,"untwisted@(2, 0)@r5",solved,solved,true',
            'probe,"untwisted@(2, 0)@r6",solved,solved,true',
            'probe,"twisted@(0, 0)@r4",unsolvable,unsolvable,true',
            'probe,"twisted@(0, 0)@r5",unsolvable,unsolvable,true',
            'probe,"twisted@(0, 0)@r6",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 0)@r4",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 0)@r5",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 0)@r6",unsolvable,unsolvable,true',
            'probe,"twisted@(0, 1)@r4",unsolvable,unsolvable,true',
            'probe,"twisted@(0, 1)@r5",unsolvable,unsolvable,true',
            'probe,"twisted@(0, 1)@r6",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 1)@r4",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 1)@r5",unsolvable,unsolvable,true',
            'probe,"twisted@(1, 1)@r6",unsolvable,unsolvable,true',
            'probe,"untwisted@(1, 1)@r4",unsolvable,unsolvable,true',
            'probe,"untwisted@(1, 1)@r5",unsolvable,unsolvable,true',
            'probe,"untwisted@(1, 1)@r6",unsolvable,unsolvable,true',
            'probe,"untwisted@(-1, -1)@r4",solved,solved,true',
            'probe,"untwisted@(-1, -1)@r5",solved,solved,true',
            'probe,"untwisted@(-1, -1)@r6",solved,solved,true',
            "h1,trials,2/2,2/2,true",
        )
        assert text.count("\n") == csv.count("\n") == 39
        assert run(capsys, *argv) == (0, text)
        assert run(capsys, *argv, "--format", "csv") == (0, csv)
