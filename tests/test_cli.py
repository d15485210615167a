"""Command-line tests: argument validation, every subcommand and format,
exit codes, and byte-level output stability."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

import macgain.cli
import macgain.solvers
from reference import finite_certified, massive_certified
from macgain.cli import CSV_HEADER, _json_points, decibels, main, user_count
from macgain.core import ChannelConfig, db_to_linear
from macgain.solvers import (
    CurvePoint,
    eval_point,
    invert_massive_parametric,
    solve_lambda_massive,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def assert_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


def run_with_capped_memory(argv):
    # The child gets 512 MiB of address space, so an input that is built
    # before it is refused fails fast instead of exhausting memory.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from macgain.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, timeout=60
    )


class TestUsageErrors:
    def test_no_command(self):
        assert_usage_error([])

    def test_solve_needs_user_choice(self):
        assert_usage_error(["solve", "--power-db", "0"])

    def test_solve_rejects_both_user_choices(self):
        assert_usage_error(
            ["solve", "--users", "2", "--massive", "--total-power-db", "0"]
        )

    def test_solve_needs_power(self):
        assert_usage_error(["solve", "--users", "2"])

    def test_massive_rejects_per_user_power(self):
        assert_usage_error(["solve", "--massive", "--power-db", "0"])

    def test_user_count_floor(self):
        assert_usage_error(["solve", "--users", "1", "--power-db", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--power-db", "0", "--users"],
            ["curve", "--users"],
            ["peak", "--users"],
            ["figure", "--which", "cfactor", "--users"],
        ],
    )
    def test_user_count_beyond_float_range(self, capsys, argv):
        assert_usage_error([*argv, str(10**400)])
        err = capsys.readouterr().err
        assert "beyond float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("precision", ["0", "18", "-3"])
    def test_precision_window(self, precision):
        assert_usage_error(
            ["solve", "--users", "2", "--power-db", "0", "--precision", precision]
        )

    def test_curve_rejects_reversed_range(self):
        assert_usage_error(["curve", "--massive", "--from-db", "1", "--to-db", "0"])

    def test_curve_rejects_zero_step(self):
        assert_usage_error(["curve", "--massive", "--step-db", "0"])

    @pytest.mark.parametrize("step", ["inf", "nan", "-1"])
    def test_step_must_be_finite_and_positive(self, step):
        assert_usage_error(["curve", "--massive", "--step-db", step])

    def test_peak_rejects_empty_range(self):
        assert_usage_error(["peak", "--massive", "--from-db", "5", "--to-db", "5"])

    def test_verify_rejects_zero_samples(self):
        assert_usage_error(["verify", "--samples", "0"])

    def test_verify_rejects_negative_seed(self):
        assert_usage_error(["verify", "--seed", "-1"])

    def test_verify_has_no_precision(self):
        # Its report lines have fixed formats; the option changed nothing.
        assert_usage_error(["verify", "--samples", "10", "--precision", "3"])

    def test_figure_rejects_bad_user_token(self):
        assert_usage_error(["figure", "--which", "cfactor", "--users", "1"])

    def test_figure_rejects_empty_user_list(self):
        assert_usage_error(["figure", "--which", "cfactor", "--users", ","])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "--power-db", "0", "--users", "1e3"], "--users"),
            (["solve", "--users", "2", "--power-db", "abc"], "--power-db"),
            (["curve", "--massive", "--step-db", "abc"], "--step-db"),
            (["peak", "--massive", "--precision", "abc"], "--precision"),
            (["figure", "--which", "cfactor", "--users", "2,abc"], "--users"),
        ],
        ids=["users", "power-db", "step-db", "precision", "users-list"],
    )
    def test_unparsable_value_names_its_flag(self, capsys, argv, flag):
        # argparse names the type callable in this message, so it must read
        # as the kind of value the flag takes.
        assert_usage_error(argv)
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid " in err
        assert "_arg" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--users", "2", "--power-db", "4000"],
            ["solve", "--massive", "--total-power-db", "4000"],
            ["solve", "--users", "2", "--power-db", "-4000"],
            ["curve", "--massive", "--to-db", "inf"],
            ["curve", "--massive", "--from-db", "nan"],
            ["peak", "--massive", "--to-db", "1e400"],
            ["figure", "--which", "cfactor", "--to-db", "inf"],
        ],
    )
    def test_unrepresentable_db(self, argv):
        assert_usage_error(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--users", "2", "--step-db", "1e-7"],
            ["figure", "--which", "cfactor", "--step-db", "1e-7"],
            ["curve", "--massive", "--from-db", "-1500", "--to-db", "1500"],
            # 20000 whole-step points plus the clamped end point.
            ["curve", "--users", "10", "--from-db", "0", "--to-db", "1999.95",
             "--step-db", "0.1"],
        ],
    )
    def test_oversized_grid(self, argv):
        proc = run_with_capped_memory(argv)
        assert proc.returncode == 2
        assert b"grid points" in proc.stderr

    def test_oversized_sample_plan(self):
        proc = run_with_capped_memory(["verify", "--samples", "1000000000"])
        assert proc.returncode == 2
        assert b"n_samples must be in [1, 100000]" in proc.stderr


class TestSolve:
    def test_massive_text(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--massive", "--total-power-db", "30"
        )
        assert code == 0
        assert err == ""
        values = parse_kv(out)
        assert values["lambda_star"] == "9.11925268"
        assert float(values["lambda_star_db"]) == pytest.approx(9.5996, abs=1e-3)
        assert float(values["capacity_nofb_nats"]) == pytest.approx(
            math.log(1001.0), abs=1e-8
        )
        assert float(values["gain_F"]) == pytest.approx(1.3198113, abs=1e-6)
        assert "degenerate" not in values

    def test_finite_per_user_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--users", "100", "--power-db", "0"
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["lambda_star"]) == pytest.approx(6.2457510, abs=1e-6)
        assert float(values["lambda_star_db"]) == pytest.approx(7.9558467, abs=1e-6)
        assert float(values["gain_F"]) == pytest.approx(1.3951253, abs=1e-6)

    def test_finite_total_power_equivalent(self, capsys):
        _, per_user, _ = run_cli(capsys, "solve", "--users", "10", "--power-db", "0")
        _, total, _ = run_cli(
            capsys, "solve", "--users", "10", "--total-power-db", "10"
        )
        assert parse_kv(per_user)["lambda_star"] == parse_kv(total)["lambda_star"]

    def test_degenerate_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--users", "2", "--power-db", "-200"
        )
        assert code == 0
        values = parse_kv(out)
        assert values["lambda_star"] == "1"
        assert values["gain_F"] == "1"
        assert values["degenerate"] == "true"

    def test_bits_lines(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--massive", "--total-power-db", "30", "--bits"
        )
        values = parse_kv(out)
        nats = float(values["capacity_fb_nats"])
        bits = float(values["capacity_fb_bits"])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-8)

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--massive", "--total-power-db", "30",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["users"] == "massive"
        assert payload["pi"] == pytest.approx(1000.0, rel=1e-12)
        assert payload["lambda"] == pytest.approx(9.119252679077707, abs=5e-12)
        assert payload["degenerate"] is False
        assert payload["iterations"] > 0
        assert abs(payload["residual"]) <= 1e-10

    def test_json_finite_users_is_int(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--users", "3", "--power-db", "10", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["users"] == 3
        assert payload["lambda"] == pytest.approx(2.305501180940743, abs=1e-8)

    def test_precision_controls_rendering(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--massive", "--total-power-db", "30",
            "--precision", "3",
        )
        assert parse_kv(out)["lambda_star"] == "9.12"


class TestCurve:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--massive")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 402
        assert lines[1].startswith("-10,0.1,inf,")
        assert lines[-1].startswith("30,1000,inf,9.11925268")

    def test_csv_bytes_are_stable(self, capsys):
        _, first, _ = run_cli(capsys, "curve", "--massive")
        _, second, _ = run_cli(capsys, "curve", "--massive")
        assert first == second

    def test_finite_users_token(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--users", "3", "--from-db", "0", "--to-db", "2",
            "--step-db", "1",
        )
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[2] == "3" for line in lines[1:])

    def test_step_wider_than_range(self, capsys):
        # A step is a width in dB, not a power: 3090 dB is a valid step
        # even though no linear power is 3090 dB.
        code, out, err = run_cli(
            capsys, "curve", "--massive", "--from-db", "0", "--to-db", "10",
            "--step-db", "3090",
        )
        assert code == 0 and err == ""
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "10"]

    def test_step_below_float_spacing_prints_each_row_once(self, capsys):
        # 30 + i*1e-15 rounds to 30 or to the next float up: four whole
        # steps, two distinct powers, one row each, to_db last.
        code, out, _ = run_cli(
            capsys, "curve", "--massive", "--from-db", "30",
            "--to-db", "30.000000000000004", "--step-db", "1e-15", "--precision", "17",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["30", "30.000000000000004"]

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--massive", "--from-db", "30", "--to-db", "30"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_round_trip_precision(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--users", "2", "--from-db", "-10", "--to-db", "10",
            "--step-db", "2.5",
        )
        for line in out.splitlines()[1:]:
            for token in line.split(","):
                if token == "2":
                    continue
                assert f"{float(token):.9g}" == token

    def test_json_points(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--massive", "--from-db", "0", "--to-db", "10",
            "--step-db", "5", "--format", "json",
        )
        payload = json.loads(out)
        points = payload["points"]
        assert len(points) == 3
        assert all(pt["K"] == "massive" for pt in points)
        assert [pt["pi_db"] for pt in points] == [0.0, 5.0, 10.0]
        assert points[2]["lambda"] == pytest.approx(3.7473777, abs=1e-6)

    def test_svg_parses(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--massive", "--step-db", "1", "--format", "svg"
        )
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 41

    @pytest.mark.parametrize("argv", [
        ["curve", "--massive", "--from-db", "-150", "--to-db", "-149",
         "--step-db", "0.5"],
        ["figure", "--which", "cfactor", "--users", "massive", "--from-db", "-150",
         "--to-db", "-149", "--step-db", "0.5"],
        ["curve", "--massive", "--from-db", "30", "--to-db", "30.000000000000004",
         "--step-db", "1e-15"],
    ], ids=["flat_F", "flat_F_figure", "ulp_wide_x"])
    def test_svg_axis_narrower_than_float_spacing(self, argv):
        # F reads 1.0000000000000004..7 on the first two, and the third's x
        # span is a few ulps: a tick step that no longer moves the tick
        # value must end the tick loop, not grow it until memory runs out.
        result = run_with_capped_memory([*argv, "--format", "svg"])
        assert result.returncode == 0, result.stderr
        assert ET.fromstring(result.stdout).tag.endswith("svg")


class TestPeak:
    def test_massive_text(self, capsys):
        code, out, _ = run_cli(capsys, "peak", "--massive")
        assert code == 0
        values = parse_kv(out)
        assert list(values) == ["pi_star", "pi_star_db", "F_star", "lambda_at_peak"]
        assert float(values["pi_star"]) == pytest.approx(5.38, abs=0.05)
        assert float(values["F_star"]) == pytest.approx(1.53733, abs=1e-4)

    def test_two_user_json(self, capsys):
        code, out, _ = run_cli(capsys, "peak", "--users", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["users"] == 2
        assert payload["F_star"] == pytest.approx(1.1903994, abs=1e-6)
        assert payload["pi_star_db"] == pytest.approx(7.104, abs=2e-3)
        # The final bracket of the slope root: (pi_db, g) with g < 0 where F
        # still rises and g > 0 where it falls, around pi_star_db.
        (left_db, left_g), (right_db, right_g) = payload["bracket_evidence"]
        assert left_db <= payload["pi_star_db"] <= right_db
        assert left_g < 0.0 < right_g

    def test_range_wider_than_any_grid(self, capsys):
        # Peak search builds no grid, so a range past MAX_GRID_POINTS at
        # 0.1 dB is served, with the same peak as the default range.
        code, out, err = run_cli(
            capsys, "peak", "--massive", "--from-db", "-300", "--to-db", "3000"
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_STDOUT["peak --massive"]

    @pytest.mark.parametrize("curve", ["--massive", "--users 2", "--users 10",
                                       "--users 1000000"])
    def test_range_to_the_top_of_the_float_range(self, capsys, curve):
        # pi*lam overflows at 3082 dB on every curve, where the search clips
        # t below the largest float; the peak is the default range's.
        code, top, err = run_cli(capsys, "peak", *curve.split(), "--from-db", "0",
                                 "--to-db", "3082")
        assert (code, err) == (0, "")
        code, default, err = run_cli(capsys, "peak", *curve.split())
        assert top == default
        if curve == "--massive":
            assert parse_kv(top)["F_star"] == "1.53733266"

    def test_no_interior_peak_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "peak", "--massive", "--from-db", "-10", "--to-db", "0"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("macgain: ")
        assert "widen the range" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # pi*lam overflows at the top of the range; without the log split
        # (the unsplit_residual fixture) the residual is NaN there.
        (["solve", "--users", "2", "--power-db", "3077"], "NaN"),
        (["curve", "--users", "10", "--from-db", "3000", "--to-db", "3080",
          "--step-db", "40"], "NaN"),
        (["peak", "--massive", "--from-db", "-10", "--to-db", "0"], "widen the range"),
        # The same in the massive limit; a NaN slack is no root.
        (["solve", "--massive", "--total-power-db", "3070"], "NaN"),
        (["solve", "--massive", "--total-power-db", "3080"], "NaN"),
        # A derived power that leaves the float range is refused unsolved.
        (["solve", "--users", "2", "--power-db", "3080"],
         "total power must be a positive finite power, got inf"),
        (["solve", "--users", "3", "--total-power-db", "-3233"],
         "per-user power must be a positive finite power, got 0.0"),
        (["curve", "--users", "2", "--from-db", "-3233", "--to-db", "-3230",
          "--step-db", "1"], "per-user power must be a positive finite power, got 0.0"),
    ],
)
def test_solver_failure_exits_1(capsys, request, argv, message):
    if message == "NaN":  # the fixture fails a test whose solves never read it
        request.getfixturevalue("unsplit_residual")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("macgain: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_out_exits_1(tmp_path):
    # The --out directory does not exist: one message line, no traceback,
    # nothing on stdout.
    target = tmp_path / "missing" / "x"
    result = subprocess.run(
        [sys.executable, "-m", "macgain", "solve", "--users", "2", "--power-db", "0",
         "--out", str(target)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("macgain: ") and str(target) in result.stderr
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert not target.parent.exists()


def test_unwritable_out_fails_before_computing(tmp_path):
    # --out is opened before the command runs, so verify never starts and
    # its timing line never prints.
    target = tmp_path / "missing" / "x"
    result = subprocess.run(
        [sys.executable, "-m", "macgain", "verify", "--samples", "100",
         "--out", str(target)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("macgain: ") and str(target) in result.stderr
    assert result.stderr.count("\n") == 1
    assert "verify took" not in result.stderr


def test_failing_command_leaves_out_empty(capsys, tmp_path, monkeypatch):
    # Like a shell's > PATH, --out is truncated before the command runs.
    # Three Newton steps cannot bracket the root to LAMBDA_TOL (it takes
    # four), so it fails.
    monkeypatch.setattr(macgain.solvers, "MAX_ITER", 3)
    target = tmp_path / "out.txt"
    target.write_text("stale\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--users", "2", "--power-db", "0",
                             "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("macgain: ") and err.count("\n") == 1
    assert target.read_text(encoding="utf-8") == ""


class TestLargeKAndHighPower:
    """Inputs where a per-user residual with an absolute tolerance failed."""

    @pytest.mark.parametrize("power_db", ["54", "56", "60"])
    def test_two_users_at_high_power(self, capsys, power_db):
        code, out, err = run_cli(capsys, "solve", "--users", "2", "--power-db",
                                 power_db, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert not payload["degenerate"]
        assert finite_certified(2, payload["pi"] / 2, payload["lambda"], 1e-12)

    def test_two_user_curve_at_high_power(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--users", "2", "--from-db", "57",
                                 "--to-db", "58", "--format", "json")
        assert code == 0 and err == ""
        points = json.loads(out)["points"]
        assert len(points) == 11
        for point in points:
            assert finite_certified(2, point["pi"] / 2, point["lambda"], 1e-12)

    @pytest.mark.parametrize("argv", [
        ["--users", "2", "--power-db", "3077.5"],
        ["--users", "10", "--power-db", "3065"],
        ["--users", "1000", "--power-db", "3027.5"],
        ["--massive", "--total-power-db", "3052.5"],
    ], ids=["2", "10", "1000", "massive"])
    def test_top_of_the_float_range(self, capsys, argv):
        # pi*lam overflows at these roots or at the bracket's upper end; the
        # residual and capacity_fb take ln(pi) + ln(lam) there, so every
        # printed value is finite.
        code, out, err = run_cli(capsys, "solve", *argv, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert all(math.isfinite(payload[key]) for key in
                   ("lambda", "capacity_fb_nats", "gain_F", "residual"))
        pi, lam = payload["pi"], payload["lambda"]
        if payload["users"] == "massive":
            assert massive_certified(pi, lam, 1e-12)
        else:
            assert finite_certified(payload["users"], pi / payload["users"], lam, 1e-12)

    def test_trillion_users(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--users", "1000000000000",
                                 "--power-db", "0")
        assert code == 0 and err == ""
        values = parse_kv(out)
        assert values["lambda_star"] == "31.0671728"
        assert "degenerate" not in values
        assert finite_certified(10**12, 1.0, float(values["lambda_star"]), 1e-8)


class TestVerify:
    def test_smoke_pass(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--samples", "50", "--seed", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("point_bounds: pass ")
        assert lines[-1] == "suite: PASS (7 checks, 0 violations)"
        # The wall time goes to stderr, so stdout stays byte-reproducible.
        assert re.fullmatch(r"macgain: verify took \d+\.\d\d s\n", err)

    def test_sabotage_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--samples", "50", "--seed", "7", "--sabotage"
        )
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("root_quality: FAIL ") for line in lines)
        assert lines[-1] == "suite: FAIL (7 checks, 134 violations)"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--samples", "50", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["elapsed_s"] > 0.0
        assert len(payload["reports"]) == 7
        for report in payload["reports"]:
            assert set(report) == {
                "check_name", "samples", "violations", "worst_slack", "witness",
            }
            assert report["violations"] == 0


class TestFigure:
    def test_cfactor_csv(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "cfactor")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# columns: pi_db,F"
        headers = [line for line in lines if line.startswith("# K=")]
        assert headers == ["# K=2", "# K=3", "# K=10", "# K=100", "# K=inf"]
        assert len(lines) == 1 + 5 * (1 + 401)
        massive_rows = lines[lines.index("# K=inf") + 1:]
        best = max(float(row.split(",")[1]) for row in massive_rows)
        assert best == pytest.approx(1.53733, abs=1e-4)

    def test_pfactor_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "--which", "pfactor", "--users", "2,massive",
            "--step-db", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# columns: pi_db,lambda,lambda_db"
        blocks: dict[str, list[list[float]]] = {}
        current = None
        for line in lines[1:]:
            if line.startswith("# K="):
                current = line[4:]
                blocks[current] = []
            else:
                blocks[current].append([float(tok) for tok in line.split(",")])
        assert set(blocks) == {"2", "inf"}
        for rows in blocks.values():
            assert len(rows) == 41
            lams = [row[1] for row in rows]
            assert all(a <= b for a, b in zip(lams, lams[1:]))
        # Same grid, and the massive curve dominates the two-user curve.
        for two, massive in zip(blocks["2"], blocks["inf"]):
            assert two[0] == massive[0]
            assert two[1] < massive[1]

    def test_single_user_block(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure", "--which", "cfactor", "--users", "2",
            "--step-db", "1",
        )
        lines = out.splitlines()
        assert lines[1] == "# K=2"
        best = max(float(line.split(",")[1]) for line in lines[2:])
        assert best < 1.2

    def test_json_series(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure", "--which", "cfactor", "--users", "3,massive",
            "--step-db", "10", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["which"] == "cfactor"
        assert [series["K"] for series in payload["series"]] == [3, "massive"]
        assert all(len(series["points"]) == 5 for series in payload["series"])

    def test_svg_has_all_series(self, capsys):
        _, out, _ = run_cli(
            capsys, "figure", "--which", "cfactor", "--step-db", "1",
            "--format", "svg",
        )
        root = ET.fromstring(out)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 5
        labels = {el.text for el in root.iter() if el.tag.endswith("text")}
        assert {"K=2", "K=3", "K=10", "K=100", "massive"} <= labels


class TestOutFile:
    def test_file_matches_stdout(self, capsys, tmp_path):
        _, expected, _ = run_cli(
            capsys, "curve", "--users", "2", "--from-db", "0", "--to-db", "5",
            "--step-db", "1",
        )
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--users", "2", "--from-db", "0", "--to-db", "5",
            "--step-db", "1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == expected

    def test_dash_means_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--users", "2", "--power-db", "0", "--out", "-"
        )
        assert code == 0
        assert "lambda_star = " in out


# Exact stdout of the README examples and of full-precision solves, frozen
# from the release whose numbers the README quotes.  A change to any of
# these bytes is a change to the CLI's output contract and must be listed.
GOLDEN_STDOUT = {
    "solve --users 100 --power-db 0": (
        "lambda_star = 6.245751\n"
        "lambda_star_db = 7.95584666\n"
        "capacity_nofb_nats = 4.61512052\n"
        "capacity_fb_nats = 6.43867139\n"
        "gain_F = 1.3951253\n"
    ),
    "solve --users 2 --power-db -200": (
        "lambda_star = 1\n"
        "lambda_star_db = 0\n"
        "capacity_nofb_nats = 2e-20\n"
        "capacity_fb_nats = 2e-20\n"
        "gain_F = 1\n"
        "degenerate = true\n"
    ),
    "solve --users 3 --power-db 10 --precision 17 --bits": (
        "lambda_star = 2.3055011808597619\n"
        "lambda_star_db = 3.6276534899773698\n"
        "capacity_nofb_nats = 3.4339872044851463\n"
        "capacity_fb_nats = 4.2508501160956227\n"
        "capacity_nofb_bits = 4.9541963103868758\n"
        "capacity_fb_bits = 6.1326803820534295\n"
        "gain_F = 1.2378759334174478\n"
    ),
    "solve --massive --total-power-db 30 --format json": (
        '{\n'
        '  "users": "massive",\n'
        '  "pi": 1000.0,\n'
        '  "pi_db": 30.0,\n'
        '  "lambda": 9.119252679077709,\n'
        '  "lambda_db": 9.599592494412338,\n'
        '  "capacity_nofb_nats": 6.90875477931522,\n'
        '  "capacity_fb_nats": 9.118252788723794,\n'
        '  "gain_F": 1.3198113234564064,\n'
        '  "residual": 1.7763568394002505e-15,\n'
        '  "iterations": 3,\n'
        '  "degenerate": false\n'
        '}\n'
    ),
    "solve --users 100 --power-db 0 --format json": (
        '{\n'
        '  "users": 100,\n'
        '  "pi": 100.0,\n'
        '  "pi_db": 20.0,\n'
        '  "lambda": 6.2457510032170696,\n'
        '  "lambda_db": 7.955846664000468,\n'
        '  "capacity_nofb_nats": 4.61512051684126,\n'
        '  "capacity_fb_nats": 6.438671387162966,\n'
        '  "gain_F": 1.3951252981731026,\n'
        '  "residual": -8.881784197001252e-16,\n'
        '  "iterations": 4,\n'
        '  "degenerate": false\n'
        '}\n'
    ),
    "peak --massive": (
        "pi_star = 5.35410431\n"
        "pi_star_db = 7.28686828\n"
        "F_star = 1.53733266\n"
        "lambda_at_peak = 3.01857282\n"
    ),
    "peak --users 10 --format json": (
        '{\n'
        '  "users": 10,\n'
        '  "pi_star": 5.293553836435777,\n'
        '  "pi_star_db": 7.237473342944809,\n'
        '  "F_star": 1.4458875142360172,\n'
        '  "lambda_at_peak": 2.511107052120168,\n'
        '  "bracket_evidence": [\n'
        '    [\n'
        '      7.237473342944809,\n'
        '      -1.7763568394002505e-15\n'
        '    ],\n'
        '    [\n'
        '      7.237473342945325,\n'
        '      1.354472090042691e-14\n'
        '    ]\n'
        '  ]\n'
        '}\n'
    ),
}

# The README's 401-point massive curve, frozen by digest.
GOLDEN_CURVE = "curve --massive --from-db -10 --to-db 30 --step-db 0.1 --format csv"
GOLDEN_CURVE_SHA256 = "70f9504c3cc3e1224afcef28fb0e1b854df6aff4f71d8bccc78101b44e74183e"

# The figure CSVs, frozen by digest with their line counts (a "# columns"
# line, then per curve a "# K=" line and its rows).
GOLDEN_FIGURE_SHA256 = {
    "figure --which cfactor": (
        2011, "c48e05f8e93df0be773228d5ded4777784906503a179f05f793472c3cacd191e"),
    "figure --which pfactor --users 2,massive --step-db 1": (
        85, "d2080959ed37a399ca20cbb5552ac234e607cbda3d1f13616f5f11bdd3b9feef"),
}

# The curve and figure JSON, frozen by digest with their line counts, as
# json.dumps(indent=2) wrote them before the point lists had a template.
GOLDEN_JSON_SHA256 = {
    "curve --users 100 --format json --step-db 0.02": (
        16012, "141cf314126dc8d5d9e3c8ee6f14053c30c59ba0f60e7214c842d685cde74ccd"),
    "curve --massive --format json": (
        3212, "42f9e8270c9513d48e8b8130c55d2a60f24bb4bd8e70db9cba0eaf555f29f03f"),
    "figure --which pfactor --format json --users 2,massive --step-db 1": (
        671, "70a5b1af93a84637dbefab97b9f7c5904ee76adab705410f6fa85d5bf550c48f"),
    "curve --users 3 --format json --step-db 3090": (
        20, "144c411bda2ddf1bd267c37f70df0342d636c1e0d170d920898070276e8a1b83"),
}


class TestGoldenStdout:
    @pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
    def test_exact_stdout(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        assert out == GOLDEN_STDOUT[command]

    def test_readme_curve_digest(self, capsys):
        code, out, err = run_cli(capsys, *GOLDEN_CURVE.split())
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 402
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CURVE_SHA256

    @pytest.mark.parametrize("command", list(GOLDEN_FIGURE_SHA256))
    def test_figure_digest(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        lines, digest = GOLDEN_FIGURE_SHA256[command]
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", list(GOLDEN_JSON_SHA256))
    def test_json_digest(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        lines, digest = GOLDEN_JSON_SHA256[command]
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_point(pt: CurvePoint) -> dict:
    """A point as the CLI built it for json.dumps before the template."""
    return {
        "pi_db": pt.pi_db,
        "pi": pt.pi,
        "K": "massive" if pt.users is None else pt.users,
        "lambda": pt.lam,
        "lambda_db": pt.lam_db,
        "F": pt.F,
    }


def _reference_curve(curve) -> str:
    return json.dumps({"points": [_reference_point(pt) for pt in curve]}, indent=2) + "\n"


def _reference_figure(which, curves) -> str:
    series = [{"K": "massive" if users is None else users,
               "points": [_reference_point(pt) for pt in curve]}
              for users, curve in curves]
    return json.dumps({"which": which, "series": series}, indent=2) + "\n"


def _render(command, *argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, *argv, "--format", "json"]) == 0
    return out.getvalue()


# Every finite float, subnormals included, and the edges by name.
_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, 1000.0, -3.0]),
)


class TestJsonPointTemplate:
    """cli._json_points renders exactly what json.dumps(indent=2) wrote."""

    @pytest.mark.parametrize("users", [2, 10**12, None])
    @given(rows=st.lists(st.tuples(*[_finite_floats] * 5), min_size=1, max_size=4))
    def test_drawn_points(self, users, rows):
        curve = [CurvePoint(a, b, users, c, d, e) for a, b, c, d, e in rows]
        curves = [(users, curve), (None, [pt._replace(users=None) for pt in curve])]
        # run_curve writes its envelope around depth 1, run_figure around depth 3.
        text = '{\n  "points": ' + _json_points(users, curve, 1) + "\n}\n"
        assert text == _reference_curve(curve)
        with patch.object(macgain.cli, "_sweeps", return_value=curves):
            assert _render("figure", "--which", "pfactor") == _reference_figure(
                "pfactor", curves)

    @pytest.mark.parametrize("users", [2, 10, 10**12, None])
    def test_sweeps_at_the_accepted_ends(self, users):
        # The template is exact only where every field is finite, which json
        # then also writes as a plain number; at the lowest and the highest
        # dB a sweep accepts, every swept field must be.  A finite K refuses
        # a total power whose pi/K underflows, so its sweeps start higher.
        def swept(db: float) -> bool:
            try:
                ChannelConfig(users, total_power=db_to_linear(db))
            except ValueError:
                return False
            return True

        low, top = _accepted_db_ends()
        low = _edge(swept, 0.0, low)
        token = "massive" if users is None else str(users)
        for lo, hi in ((low, low + 40.0), (top - 40.0, top)):
            curve = macgain.solvers.sweep_curve(users, lo, hi, 4.0)
            fields = [v for pt in curve for v in (pt.pi_db, pt.pi, pt.lam, pt.lam_db, pt.F)]
            assert len(curve) == 11 and all(map(math.isfinite, fields))
            massive = macgain.solvers.sweep_curve(None, lo, hi, 4.0)
            ends = ("--from-db", repr(lo), "--to-db", repr(hi), "--step-db", "4")
            assert _render("curve", *(("--massive",) if users is None else ("--users", token)),
                           *ends) == _reference_curve(curve)
            assert _render("figure", "--which", "cfactor", "--users", f"{token},massive",
                           *ends) == _reference_figure(
                "cfactor", [(users, curve), (None, massive)])


def _edge(accepted, inside: float, outside: float) -> float:
    """The last value from inside towards outside that accepted() takes, to the float."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return inside
        inside, outside = (mid, outside) if accepted(mid) else (inside, mid)


def _accepted_db_ends() -> tuple[float, float]:
    """The lowest and the highest dB value that cli.decibels accepts, to the float."""

    def accepted(value: float) -> bool:
        try:
            decibels(repr(value))
        except argparse.ArgumentTypeError:
            return False
        return True

    return _edge(accepted, 0.0, -4000.0), _edge(accepted, 0.0, 4000.0)


class TestEveryAcceptedInput:
    """A coarse walk over every (K, dB) the command line accepts.

    Each solve returns a finite lambda, capacity_fb and gain_F, or refuses
    its input with ValueError; no solve raises BracketError or
    ConvergenceError.  The walk runs from the lowest accepted dB to the top
    of the float range, for per-user and total power.
    """

    USERS = ("2", "10", "1000", "1000000", "1" + "0" * 12, "1" + "0" * 100,
             "1" + "0" * 300)

    @pytest.fixture(scope="class")
    def grid(self):
        low, top = _accepted_db_ends()
        assert decibels(repr(low)) == low and decibels(repr(top)) == top
        # About 25 dB apart, both ends, and the inversion's frontier near
        # 3054 dB, where t = pi*lam at the root overflows.
        steps = 256
        walk = [low + (top - low) * i / steps for i in range(steps)] + [top]
        return sorted(walk + [3051.5, 3054.0, 3054.1])

    def test_finite_users(self, grid):
        refused = 0
        for users in map(user_count, self.USERS):
            for power_db in grid:
                power = db_to_linear(power_db)
                for key in ("per_user_power", "total_power"):
                    try:
                        sol = eval_point(ChannelConfig(users, **{key: power}))
                    except ValueError as err:
                        # Only a K*P that overflows or a pi/K that underflows.
                        assert "must be a positive finite power" in str(err)
                        refused += 1
                        continue
                    assert 1.0 <= sol.lambda_star <= users
                    assert math.isfinite(sol.capacity_fb) and math.isfinite(sol.gain_F)
        assert refused > 0

    def test_massive_and_inversion(self, grid):
        refused = []
        for power_db in grid:
            pi = db_to_linear(power_db)
            sol = solve_lambda_massive(pi)
            assert sol.lambda_star >= 1.0
            assert math.isfinite(sol.capacity_fb) and math.isfinite(sol.gain_F)
            try:
                t, lam = invert_massive_parametric(pi)
            except ValueError as err:
                assert re.match(rf"total power {re.escape(repr(pi))} is beyond", str(err))
                refused.append(power_db)
                continue
            assert math.isfinite(t) and math.isfinite(math.log1p(t))
            assert lam == pytest.approx(sol.lambda_star, rel=1e-9)
        # t overflows at the root from about 3054.04 dB on.
        assert refused and min(refused) == 3054.1
