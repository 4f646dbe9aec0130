"""Command line interface: output formats, exit codes, stream handling.

Everything funnels through main(argv) in-process; one test runs
``python -m planeharm`` end to end and checks the console-script entry point.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from planeharm import rotation
from planeharm.basis import SpinIndex, calZ
from planeharm.cli import main
from planeharm.transform import CoefficientBlock, _max_gap, random_block, synthesize

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_laguerre_csv_row(self):
        code, out, err = run_cli(
            "eval", "--what", "laguerre", "--n", "1", "--alpha", "2",
            "--y-min", "1", "--y-max", "1", "--y-steps", "1",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["n,alpha,y,value", "1,2,1.0,2.0"]

    def test_laguerre_outside_double_range_is_an_error(self):
        code, out, err = run_cli(
            "eval", "--what", "laguerre", "--n", "600", "--alpha", "0",
            "--y-min", "2000", "--y-max", "2000", "--y-steps", "1", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "n=600, alpha=0" in err and "y=2000.0" in err

    def test_call_csv_row(self):
        code, out, _ = run_cli(
            "eval", "--what", "calL", "--two-j", "2", "--two-m", "0",
            "--y-min", "1", "--y-max", "1", "--y-steps", "1",
        )
        assert code == 0
        assert out.splitlines() == ["two_j,two_m,y,value", "2,0,1.0,0.0"]

    def test_calz_grid_shape_and_order(self):
        code, out, _ = run_cli(
            "eval", "--what", "calZ", "--two-j", "1", "--two-m", "1",
            "--y-min", "0.5", "--y-max", "1.5", "--y-steps", "2",
            "--phi-steps", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "two_j,two_m,y,phi,re,im"
        assert len(lines) == 1 + 2 * 4
        # y is the outer loop: the first four rows share y = 0.5
        ys = [line.split(",")[2] for line in lines[1:]]
        assert ys == ["0.5"] * 4 + ["1.5"] * 4
        # Each printed value matches calZ evaluated at its own point.
        s = SpinIndex(1, 1)
        for line in lines[1:]:
            y, phi, re_, im_ = (float(v) for v in line.split(",")[2:])
            expected = calZ(s, (y, phi))
            assert abs(complex(re_, im_) - expected) <= 1e-14 * abs(expected)

    def test_json_format(self):
        code, out, _ = run_cli(
            "eval", "--what", "laguerre", "--n", "2", "--alpha", "0",
            "--y-min", "0", "--y-max", "1", "--y-steps", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "alpha", "y", "value"]
        assert doc["rows"][0] == [2, 0, 0.0, 1.0]

    def test_missing_flag_is_usage_error(self):
        code, _, err = run_cli("eval", "--what", "laguerre", "--alpha", "2")
        assert code == 2
        assert "error:" in err and "--n" in err

    def test_parity_violation_is_usage_error(self):
        code, _, err = run_cli(
            "eval", "--what", "calL", "--two-j", "2", "--two-m", "1",
        )
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_pass_exit_zero(self):
        code, out, err = run_cli("verify", "--suite", "laguerre", "--j-max", "2")
        assert (code, err) == (0, "")
        assert out.rstrip().endswith("overall: pass")

    def test_readme_example_is_real_output(self):
        command = "$ planeharm verify --suite laguerre --j-max 2"
        readme = (ROOT / "README.md").read_text().splitlines()
        start = readme.index(command) + 1
        block = readme[start:readme.index("```", start)]
        code, out, _ = run_cli(*command.split()[2:])
        assert code == 0
        assert out.splitlines() == block

    def test_forced_failure_exit_one(self):
        code, out, _ = run_cli(
            "verify", "--suite", "laguerre", "--j-max", "2",
            "--tol", "laguerre.oracle=1e-300",
        )
        assert code == 1
        assert "FAIL" in out
        assert out.rstrip().endswith("overall: fail")

    def test_json_format(self):
        code, out, _ = run_cli(
            "verify", "--suite", "quadrature", "--j-max", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] == "pass"
        assert all(c["passed"] for c in doc["checks"])

    def test_unknown_suite(self):
        code, _, err = run_cli("verify", "--suite", "nope")
        assert code == 2
        assert err != ""

    def test_unknown_tolerance_id(self):
        code, _, err = run_cli(
            "verify", "--suite", "laguerre", "--j-max", "1",
            "--tol", "laguerre.oracel=1e-6",
        )
        assert code == 2
        assert "laguerre.oracel" in err

    def test_malformed_tolerance(self):
        code, _, err = run_cli(
            "verify", "--suite", "laguerre", "--j-max", "1", "--tol", "oracle",
        )
        assert code == 2

    def test_half_integer_j_max(self):
        code, out, _ = run_cli("verify", "--suite", "basis", "--j-max", "3/2")
        assert code == 0
        assert "j_max: 3/2" in out

    @pytest.mark.parametrize("flag, value", [("--j-max", "x"), ("--seed", "-1")])
    def test_bad_j_max_or_seed_is_usage_error(self, flag, value):
        code, out, err = run_cli("verify", "--suite", "laguerre", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and value in err


class TestTransform:
    def test_roundtrip_from_stdin(self):
        block = random_block("int", 3, seed=1)
        code, out, err = run_cli("transform", stdin_text=block.to_json())
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["max_coefficient_error"] <= 1e-8
        back = CoefficientBlock.from_dict(doc["block"])
        gap = max(
            abs(back.get(s.two_j, s.two_m) - block.get(s.two_j, s.two_m))
            for s in block.labels()
        )
        assert gap <= 1e-8

    def test_roundtrip_from_file(self, tmp_path):
        block = random_block("half", "5/2", seed=2)
        path = tmp_path / "block.json"
        path.write_text(block.to_json())
        code, out, _ = run_cli("transform", "--in", str(path))
        assert code == 0
        assert json.loads(out)["max_coefficient_error"] <= 1e-8

    def test_roundtrip_rejects_csv(self):
        block = random_block("int", 1, seed=0)
        code, _, err = run_cli(
            "transform", "--format", "csv", stdin_text=block.to_json(),
        )
        assert code == 2
        assert "csv" in err

    def test_synthesize_table(self):
        block = CoefficientBlock("int", 0, {(0, 0): 1.0})
        code, out, _ = run_cli(
            "transform", "--mode", "synthesize", "--format", "csv",
            "--y-min", "0", "--y-max", "2", "--y-steps", "2",
            "--phi-steps", "2",
            stdin_text=block.to_json(),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "y,phi,re,im"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.0)  # e^0 at y = 0
        assert float(first[3]) == 0.0

    def test_synthesize_rows_follow_the_y_grid_then_phi(self):
        block = random_block("half", Fraction(5, 2), seed=2)
        code, out, _ = run_cli(
            "transform", "--mode", "synthesize", "--format", "csv",
            "--y-min", "0", "--y-max", "6", "--y-steps", "4",
            "--phi-steps", "3",
            stdin_text=block.to_json(),
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        ys = [0.0, 2.0, 4.0, 6.0]
        phis = [-math.pi + 2.0 * math.pi * k / 3 for k in range(3)]
        assert [(r[0], r[1]) for r in rows] == [(y, phi) for y in ys for phi in phis]
        for y, phi, re, im in rows:
            want = synthesize(block, (y, phi))
            assert abs(complex(re, im) - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "bound", ["--y-max=inf", "--y-max=nan", "--y-min=nan", "--y-min=-inf", "--y-min=inf"]
    )
    def test_non_finite_y_bound_is_a_domain_error_naming_the_flag(self, bound):
        block = random_block("int", 3, seed=1)
        flag, value = bound.split("=")
        for args in (
            ("transform", "--mode", "synthesize"),
            ("eval", "--what", "laguerre", "--n", "1", "--alpha", "0"),
        ):
            code, out, err = run_cli(*args, bound, stdin_text=block.to_json())
            assert (code, out) == (2, "")
            assert err == f"error: {flag} must be finite, got {float(value)}\n"

    def test_schema_violation_names_field(self):
        bad = json.dumps({
            "sector": "int",
            "j_max": "2",
            "coeffs": [{"two_j": 2, "two_m": 0, "re": 1.0}],
        })
        code, _, err = run_cli("transform", stdin_text=bad)
        assert code == 2
        assert "coeffs[0].im" in err

    def test_invalid_json_input(self):
        code, _, err = run_cli("transform", stdin_text="{oops")
        assert code == 2
        assert "error:" in err

    def test_missing_input_file(self):
        code, _, err = run_cli("transform", "--in", "/nonexistent/block.json")
        assert code == 2


class TestRotate:
    def test_identity_rotation_is_byte_stable(self):
        block = random_block("int", 2, seed=3)
        code, out, _ = run_cli(
            "rotate", "--euler", "0,0,0", stdin_text=block.to_json(),
        )
        assert code == 0
        assert CoefficientBlock.from_json(out) == block

    def test_full_turn_negates_half_sector(self):
        block = CoefficientBlock("half", "1/2", {(1, 1): 1.0})
        code, out, _ = run_cli(
            "rotate", "--euler", f"0,{2 * math.pi},0", stdin_text=block.to_json(),
        )
        assert code == 0
        turned = CoefficientBlock.from_json(out)
        assert abs(turned.get(1, 1) + 1.0) < 1e-12

    def test_csv_output(self):
        block = CoefficientBlock("int", 1, {(2, 0): 1.0})
        code, out, _ = run_cli(
            "rotate", "--euler", "0,0,0", "--format", "csv",
            stdin_text=block.to_json(),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "two_j,two_m,re,im"
        assert lines[1].startswith("2,0,1")

    def test_unitarity_failure_is_a_typed_error(self, monkeypatch):
        # Eigenvectors stretched by 1e-3 fail the rotation's unitarity gate.
        real_jx_columns = rotation._jx_columns

        def jx_columns(two_j):
            return [1.001 * u for u in real_jx_columns(two_j)]

        monkeypatch.setattr(rotation, "_jx_columns", jx_columns)
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        block = CoefficientBlock("int", 1, {(2, 0): 1.0})
        code, out, err = run_cli("rotate", "--euler", "0.1,0.2,0.3", stdin_text=block.to_json())
        assert code == 2
        assert out == ""
        assert err.startswith("error: rotation matrix for two_j=2: ")
        assert "unexpected" not in err

    @pytest.mark.parametrize("angles", ["-0.5,1,2", "-1e-3,-2,-3"])
    def test_a_leading_negative_angle_needs_no_equals_sign(self, angles):
        text = random_block("half", Fraction(7, 2), seed=4).to_json()
        spaced = run_cli("rotate", "--euler", angles, stdin_text=text)
        joined = run_cli("rotate", f"--euler={angles}", stdin_text=text)
        assert spaced[0] == 0 and spaced[2] == ""
        assert spaced == joined

    @pytest.mark.parametrize("sector, j_max", [("int", 12), ("half", Fraction(25, 2))])
    @pytest.mark.parametrize("abc", [(-0.5, 1.0, 2.0), (0.4, -1.1, -0.3), (-1e-3, -2.0, -3.0)])
    def test_rotating_by_minus_c_b_a_returns_the_block(self, sector, j_max, abc):
        block = random_block(sector, j_max, seed=6)
        a, b, c = abc
        code, turned, _ = run_cli("rotate", "--euler", f"{a!r},{b!r},{c!r}", stdin_text=block.to_json())
        assert code == 0
        code, back, _ = run_cli("rotate", "--euler", f"{-c!r},{-b!r},{-a!r}", stdin_text=turned)
        assert code == 0
        assert _max_gap(CoefficientBlock.from_json(back), block) <= 1e-13

    def test_malformed_euler(self):
        code, _, err = run_cli("rotate", "--euler", "1,2", stdin_text="{}")
        assert code == 2

    def test_non_numeric_euler(self):
        code, _, err = run_cli(
            "rotate", "--euler", "a,b,c",
            stdin_text=CoefficientBlock("int", 0).to_json(),
        )
        assert code == 2


class TestQuadrature:
    def test_two_point_closed_form(self):
        code, out, _ = run_cli("quadrature", "--order", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,weight,lifted_weight"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(2.0 - math.sqrt(2.0))
        assert rows[1][0] == pytest.approx(2.0 + math.sqrt(2.0))
        assert rows[0][1] == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0)
        assert rows[1][1] == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0)
        for node, weight, lifted in rows:
            assert lifted == pytest.approx(weight * math.exp(node / 2.0) ** 2)

    def test_weight_sum_with_alpha(self):
        code, out, _ = run_cli("quadrature", "--order", "5", "--alpha", "3")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(math.gamma(4.0), rel=1e-12)

    def test_nonpositive_order(self):
        code, _, err = run_cli("quadrature", "--order", "0")
        assert code == 2


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_help_exits_zero(self):
        code, out, _ = run_cli("--help")
        assert code == 0

    def test_console_script(self):
        # The [project.scripts] entry point and `python -m planeharm` both
        # land in cli.main; the module form runs from the source tree.
        text = (ROOT / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        assert section is not None
        assert re.search(r'^planeharm\s*=\s*"planeharm\.cli:main"\s*$', section.group(1), re.M)
        proc = subprocess.run(
            [sys.executable, "-m", "planeharm", "verify", "--suite", "quadrature", "--j-max", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0
        assert proc.stdout.rstrip().endswith("overall: pass")
