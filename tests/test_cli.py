"""Tests for the command-line front end."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from cycloknot import cli
from cycloknot.exactring import LaurentPoly
from cycloknot.invariants import InvariantReport
from cycloknot.knots import double_twist, habiro_a
from cycloknot.verify import SUITES


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_table_matches_closed_form(self, capsys):
        code, out, err = run_capture(capsys, ["coeffs", "--knot", "dt:1,1", "--n", "0..4"])
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "a_0 = 1",
            "a_1 = -q^2",
            "a_2 = q^5",
            "a_3 = -q^9",
            "a_4 = q^14",
        ]

    def test_at_root(self, capsys):
        code, out, _ = run_capture(capsys, ["coeffs", "--knot", "dt:1,1", "--n", "1", "--p", "2"])
        assert code == 0
        assert out == "a_1(e_2) = -1\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run_capture(
            capsys, ["coeffs", "--knot", "dt:2,-2", "--n", "0..3", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "coeffs" and obj["knot"] == "dt:-2,2"
        for row in obj["values"]:
            poly = LaurentPoly.from_json_obj(row["a"])
            assert poly == habiro_a(double_twist(2, -2), row["n"])
            assert poly.to_json_obj() == row["a"]


class TestJones:
    def test_color_one(self, capsys):
        code, out, _ = run_capture(capsys, ["jones", "--knot", "dt:1,1", "--N", "1"])
        assert code == 0 and out == "J_1 = 1\n"

    def test_range(self, capsys):
        code, out, _ = run_capture(capsys, ["jones", "--knot", "t2:1", "--N", "1..3"])
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()] == ["J_1", "J_2", "J_3"]


class TestAdoWrtCgp:
    def test_ado_text(self, capsys):
        code, out, _ = run_capture(capsys, ["ado", "--knot", "dt:1,1", "--p", "2"])
        assert code == 0 and out == "ADO = -x - 1 - x^-1\n"

    def test_wrt_normalized(self, capsys):
        code, out, _ = run_capture(
            capsys, ["wrt", "--knot", "dt:-1,1", "--p", "3", "--normalized"]
        )
        assert code == 0
        assert out.splitlines() == ["WRT = -6", "WRT/{1}^2 = 2"]

    def test_wrt_torus(self, capsys):
        code, out, _ = run_capture(capsys, ["wrt", "--knot", "t2:1", "--p", "3"])
        assert code == 0 and out.startswith("WRT = ")

    def test_cgp_tags(self, capsys):
        code, out, _ = run_capture(capsys, ["cgp", "--knot", "t2:1", "--p", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "denominator = (u^p - u^-p)^2"
        assert lines[2] == "numerator_prefactor = u^4"
        assert lines[3] == "denominator_extra = (1 + u^-2p)"

    def test_cgp_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["cgp", "--knot", "dt:-1,1", "--p", "3", "--format", "json"]
        )
        obj = json.loads(out)
        num = LaurentPoly.from_json_obj(obj["numerator"])
        assert num.to_json_obj() == obj["numerator"]
        assert obj["numerator_prefactor"] is None


class TestUsageErrors:
    def test_malformed_knot_names_grammar(self, capsys):
        code, out, err = run_capture(capsys, ["coeffs", "--knot", "dt:zero,1"])
        assert code == 2 and "dt:L,M" in err and out == ""

    def test_bad_range(self, capsys):
        code, _, err = run_capture(capsys, ["coeffs", "--knot", "dt:1,1", "--n", "4..1"])
        assert code == 2 and "--n" in err

    def test_mirror_torus_wrt_unsupported(self, capsys):
        code, _, err = run_capture(capsys, ["wrt", "--knot", "!t2:2", "--p", "3"])
        assert code == 2 and "wrt supports" in err

    def test_even_p(self, capsys):
        code, _, err = run_capture(capsys, ["wrt", "--knot", "dt:1,1", "--p", "4"])
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, err = run_capture(capsys, ["verify", "--suite", "nope"])
        assert code == 2 and "unknown suite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--knot", "dt:1,1", "--p", "0"],
            ["coeffs", "--knot", "dt:1,1", "--p", "-3"],
            ["coeffs", "--knot", "dt:1,1", "--n", "-1"],
            ["jones", "--knot", "dt:1,1", "--N", "0"],
            ["jones", "--knot", "dt:0,1", "--N", "1"],
            ["ado", "--knot", "dt:1,1", "--p", "0"],
            ["ado", "--knot", "t2:0", "--p", "3"],
            ["wrt", "--knot", "dt:1,1", "--p", "1"],
            ["cgp", "--knot", "dt:1,1", "--p", "-5"],
            ["cgp", "--knot", "!t2:2", "--p", "3"],
            ["verify", "--suite", "thm2", "--p", "0"],
            ["verify", "--suite", "thm2", "--knot", "zz"],
            ["cgp", "--knot", "dt:1,1", "--p", "4"],
        ],
    )
    def test_bad_input_is_one_line_exit_2(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "thm3", "--p", "9"],
            ["verify", "--suite", "thm2", "--p", "4"],
            ["verify", "--suite", "thm3", "--p", "9", "--format", "json"],
            ["verify", "--suite", "torus-T", "--knot", "dt:1,1"],
            ["verify", "--suite", "all", "--knot", "dt:3,3"],
        ],
    )
    def test_empty_selection_exit_2(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "selects no checks" in err

    def test_argparse_errors_exit_2(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()
        assert cli.run(["jones", "--knot", "dt:1,1"]) == 2  # missing --N
        capsys.readouterr()


class TestVerify:
    def test_single_suite_pass(self, capsys):
        code, out, err = run_capture(
            capsys, ["verify", "--suite", "thm2", "--p", "3", "--knot", "dt:-1,1"]
        )
        assert code == 0 and err == ""
        assert "PASS thm2-periodicity knot=dt:-1,1 p=3" in out
        assert out.splitlines()[-1].startswith("== summary:")

    def test_quick_all_reports_every_suite(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "--suite", "all", "--quick"])
        assert code == 0 and err == ""
        for name in SUITES:
            assert f"== suite {name}:" in out
        assert " 0 failed" in out.splitlines()[-1]

    def test_exploratory_failures_do_not_fail_run(self, capsys, monkeypatch):
        report = InvariantReport("demo", {"exploratory": True}, False)
        monkeypatch.setitem(cli.SUITES, "thm3", lambda *a: iter([(None, None, lambda: [report])]))
        code, out, err = run_capture(capsys, ["verify", "--suite", "thm3"])
        assert code == 0 and err == ""
        assert "INFO(fail) demo" in out

    def test_failures_exit_1_and_go_to_stderr(self, capsys, monkeypatch):
        bad = InvariantReport("demo-bad", {"p": 3}, False)
        monkeypatch.setitem(cli.SUITES, "thm2", lambda *a: iter([(None, None, lambda: [bad])]))
        code, out, err = run_capture(capsys, ["verify", "--suite", "thm2"])
        assert code == 1
        assert "FAIL demo-bad" in out
        assert "FAIL demo-bad" in err

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--knot", "dt:2,2", "knot=dt:2,2"),
            ("--knot", "dt:-1,1", "knot=dt:-1,1"),
            ("--p", "3", "p=3"),
            ("--p", "5", "p=5"),
            ("--p", "7", "p=7"),
        ],
    )
    def test_filter_keeps_only_matching_checks(self, capsys, flag, value, needle):
        code, out, err = run_capture(capsys, ["verify", "--suite", "all", flag, value])
        assert code == 0 and err == ""
        lines = [line for line in out.splitlines() if not line.startswith("==")]
        assert lines
        for line in lines:
            assert needle in line.split(), line

    def test_knot_filter_drops_exploratory_torus_points(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "thm3", "--exploratory", "--knot", "dt:1,1"]
        )
        assert code == 0
        assert "knot=dt:1,1" in out and "t2:" not in out

    def test_json_summary(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["verify", "--suite", "jones-consistency", "--quick", "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["failed"] == 0
        assert obj["suites"][0]["suite"] == "jones-consistency"
        assert all(r["pass"] for r in obj["suites"][0]["reports"])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--knot", "dt:2,1", "--n", "0..5", "--format", "json"],
            ["jones", "--knot", "t2:2", "--N", "1..4"],
            ["ado", "--knot", "!t2:2", "--p", "3", "--format", "json"],
            ["cgp", "--knot", "dt:2,-2", "--p", "3"],
            ["verify", "--suite", "habiro-goldens", "--quick"],
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        code1, out1, err1 = run_capture(capsys, argv)
        code2, out2, err2 = run_capture(capsys, argv)
        assert (code1, out1, err1) == (code2, out2, err2)


def _readme_commands() -> list[list[str]]:
    """The argument lists of every `cyclo-knot ...` line in README's sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("cyclo-knot ")
    ]


class TestReadme:
    def test_examples_found(self):
        assert len(_readme_commands()) >= 8

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_example_exits_0(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 0, err
        assert out
