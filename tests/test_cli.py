"""Exit codes, output formats, and byte determinism of the command line."""

from __future__ import annotations

import json

import pytest

from ncgeo.cli import _to_json, _window_list, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


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
        code, _ = run(capsys, "verify-projections", "--corrupt-r", "--numeric")
        assert code == 1


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
