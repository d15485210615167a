"""Tests of the executable verification suite: sampling, slack tracking,
the individual checks, and the sabotage negative control."""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import macgain.solvers
import macgain.verify
from conftest import scalar_derivative_roots
from macgain.core import (ChannelConfig, _balance, _fixed_point, _fixed_point_many, _lambda_bound,
                          db_to_linear)
from macgain.solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    DEFAULT_USERS,
    BracketError,
    ConvergenceError,
    LAMBDA_TOL,
    db_grid,
    eval_point,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)
from macgain.verify import (
    _gain,
    _report,
    _root_many,
    BoundReport,
    DERIVATIVE_GRID,
    DERIVATIVE_STEP,
    DERIVATIVE_USERS,
    IMPROVED_GAIN_CAP,
    MAX_SAMPLES,
    NUMERIC_SLOP,
    ROOT_RESIDUAL_TOL,
    SAMPLE_POWERS,
    SAMPLE_USERS,
    SampleSpec,
    TAIL_GAIN_CAP,
    check_derivative,
    check_monotone_unimodal,
    check_tail_bounds,
    draw_samples,
    point_bound_slacks,
    run_suite,
    suite_passed,
)

REPORT_ORDER = [
    "point_bounds",
    "root_quality",
    "sandwich_large_k",
    "tail_bounds",
    "derivative_consistency",
    "curve_shape",
    "global_gain_bounds",
]


class TestBoundReport:
    def test_pass_line(self):
        report = BoundReport("demo", 3, 0, 1.5e-3, "w at K=2")
        assert report.passed
        assert report.line() == (
            "demo: pass samples=3 violations=0 worst_slack=1.500000e-03 "
            "witness[w at K=2]"
        )

    def test_fail_line(self):
        report = BoundReport("demo", 3, 2, -0.25, "w")
        assert not report.passed
        assert report.line().startswith("demo: FAIL samples=3 violations=2 ")


class TestSampleSpec:
    def test_valid(self):
        assert SampleSpec(seed=0, n_samples=5).n_samples == 5
        assert SAMPLE_USERS == (2, 10_000)
        assert SAMPLE_POWERS == (1e-3, 1e3)
        assert SampleSpec(seed=0, n_samples=MAX_SAMPLES).n_samples == MAX_SAMPLES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"n_samples": -1},
            {"n_samples": 10 * MAX_SAMPLES},
            {"seed": -(2**31)},
            {"seed": -1, "n_samples": 0},
            {"seed": -1},
            {"n_samples": MAX_SAMPLES + 1},
            {"n_samples": 10.5},
            {"n_samples": 10.0},
            {"seed": 1.5},
            {"seed": True},
            {"n_samples": True},
            {"seed": "1"},
        ],
    )
    def test_rejects_bad_plans(self, kwargs):
        plan = {"seed": 0, "n_samples": 4, **kwargs}
        with pytest.raises(ValueError):
            SampleSpec(**plan)

    def test_replace_validates(self):
        spec = SampleSpec(seed=0, n_samples=4)
        assert spec._replace(seed=3) == SampleSpec(seed=3, n_samples=4)
        with pytest.raises(ValueError, match="n_samples"):
            spec._replace(n_samples=0)


class TestDrawSamples:
    def test_deterministic(self):
        spec = SampleSpec(seed=11, n_samples=50)
        (k_a, p_a), (k_b, p_b) = draw_samples(spec), draw_samples(spec)
        assert np.array_equal(k_a, k_b) and np.array_equal(p_a, p_b)

    def test_seed_changes_draw(self):
        k_a, p_a = draw_samples(SampleSpec(seed=11, n_samples=50))
        k_b, p_b = draw_samples(SampleSpec(seed=12, n_samples=50))
        assert not (np.array_equal(k_a, k_b) and np.array_equal(p_a, p_b))

    def test_ranges_and_spread(self):
        K, P = draw_samples(SampleSpec(seed=0, n_samples=1000))
        assert len(K) == 1000 and len(P) == 1000
        assert K.dtype.kind == "i" and P.dtype == np.float64
        ks = [int(k) for k in K]
        ps = [float(p) for p in P]
        assert min(ks) >= 2 and max(ks) <= 10_000
        assert min(ps) >= 1e-3 and max(ps) <= 1e3
        # Log-uniform draws must populate every decade of both axes.
        assert len(set(ks)) > 100
        assert any(k < 10 for k in ks) and any(k > 1000 for k in ks)
        assert any(p < 1e-2 for p in ps) and any(p > 1e2 for p in ps)


class TestPointBounds:
    def test_slack_names(self):
        names = [name for name, _ in point_bound_slacks(3, 1.0, 2.0)]
        assert names == [
            "log_bracket_lower",
            "log_bracket_upper",
            "gain_floor",
            "fixed_point_ceiling",
            "bracket_cap",
        ]

    def test_bracket_cap_needs_lam_below_K(self):
        # At lam = K the cap divides by K - lam = 0, so its entry is no
        # slack; callers drop it (run_suite masks it).
        slacks = dict(point_bound_slacks(np.array([3, 3]), np.array([1.0, 1.0]),
                                         np.array([2.0, 3.0])))
        assert slacks["bracket_cap"][0] == 2.0
        assert slacks["bracket_cap"][1] == math.inf

    @pytest.mark.parametrize("K, P", [(2, 1.0), (100, 1.0), (17, 0.003)])
    def test_clean_points_pass(self, K, P):
        slacks = point_bound_slacks(K, P, solve_lambda_star(K, P).lambda_star)
        assert len(slacks) == 5
        assert min(slack for _, slack in slacks) > 0.0

    def test_off_root_point_is_caught(self):
        # Half a unit above the hundred-user root the fixed-point ceiling
        # fails, which proves the slack machinery can see a bad root.
        lam = min(solve_lambda_star(100, 1.0).lambda_star + 0.5, 100.0)
        slacks = dict(point_bound_slacks(100, 1.0, lam))
        failing = [name for name, slack in slacks.items() if slack < -NUMERIC_SLOP]
        assert len(failing) >= 1
        assert min(slacks, key=slacks.get) == "fixed_point_ceiling"
        assert slacks["fixed_point_ceiling"] < -1e-3


def scalar_tail_roots():
    """check_tail_bounds' 34 powers and their roots from two scalar sweeps."""
    points = sweep_curve(None, -60.0, -10.0, 2.5) + sweep_curve(None, 30.0, 60.0, 2.5)
    return np.array([pt.pi for pt in points]), np.array([pt.lam for pt in points])


def scalar_shape_roots():
    """check_monotone_unimodal's curves and far-end limits from scalar solves."""
    curves = [sweep_curve(users, DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.1)
              for users in DEFAULT_USERS]
    limit_pis = np.array([1e-3, 1e6])
    return (np.array([pt.pi for pt in curves[0]]),
            np.array([[pt.lam for pt in curve] for curve in curves]), limit_pis,
            np.array([solve_lambda_massive(pi).lambda_star for pi in limit_pis]))


class TestTailBounds:
    def test_clean(self):
        report = check_tail_bounds(*scalar_tail_roots())
        assert report.check_name == "tail_bounds"
        assert report.passed
        assert report.samples == 136
        assert report.worst_slack > 0.0

    def test_each_link_scores_its_slice(self):
        # pis ascend, so each link is scored on a slice: the low tail's three
        # below pi = 1, the high tail's two from 1 up, loose-vs-tight only
        # where lam > e as well, and the common cap at every power.  On
        # -10..30 dB every boundary falls inside the grid.
        points = sweep_curve(None, -10.0, 30.0, 1.0)
        pis, lams = np.array([pt.pi for pt in points]), np.array([pt.lam for pt in points])
        low = int(np.count_nonzero(pis < 1.0))
        above_e = int(np.count_nonzero((pis >= 1.0) & (lams > math.e)))
        assert 0 < low and 0 < above_e < pis.size - low
        report = check_tail_bounds(pis, lams)
        assert report.samples == 3 * low + 2 * (pis.size - low) + above_e + pis.size

    def test_low_tail_anchor(self):
        F = solve_lambda_massive(0.1).gain_F
        assert F == pytest.approx(1.0483334, abs=1e-6)
        assert F <= 11.0 / 9.0

    def test_high_tail_anchor(self):
        F = solve_lambda_massive(1000.0).gain_F
        assert F == pytest.approx(1.3198113, abs=1e-6)
        assert F <= TAIL_GAIN_CAP


class TestDerivativeCheck:
    def test_clean(self):
        report = check_derivative(scalar_derivative_roots())
        assert report.check_name == "derivative_consistency"
        assert report.passed
        assert report.samples == 2 * len(DERIVATIVE_USERS) * len(DERIVATIVE_GRID)
        assert report.worst_slack > 0.0

    @pytest.mark.parametrize("error, flagged", [(2e-5, True), (5e-6, False)])
    def test_flags_slope_errors_near_the_bound(self, monkeypatch, error, flagged):
        # The step's error budget (test_oracle) leaves the 1e-5 bound sharp:
        # a slope 2e-5 off fails at every power on every curve, one 5e-6 off
        # still passes.  The slope r' the check reads is skewed so that
        # lam*(1 - r')/(pi*r') grows by the factor 1 + error.
        def skewed(K, pi, lam, work):
            r, d = _fixed_point_many(K, pi, lam, work)
            return r, d / (d + (1.0 + error) * (1.0 - d))

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", skewed)
        report = check_derivative(scalar_derivative_roots())
        points = len(DERIVATIVE_USERS) * len(DERIVATIVE_GRID)
        assert report.violations == (points if flagged else 0)


class TestCurveShape:
    def test_clean_defaults(self):
        report = check_monotone_unimodal(*scalar_shape_roots())
        assert report.check_name == "curve_shape"
        assert report.passed
        # 4 shape slacks per curve, one domination slack per adjacent pair,
        # two massive limit anchors.
        expected = 4 * len(DEFAULT_USERS) + (len(DEFAULT_USERS) - 1) + 2
        assert report.samples == expected


class TestGlobalGainBounds:
    def test_random_sample_clean(self):
        report = run_suite(SampleSpec(seed=7, n_samples=200))[-1]
        assert report.check_name == "global_gain_bounds"
        assert report.passed
        assert report.samples == 3 * 200 + 2
        assert report.worst_slack > 0.0

    def test_witness_sits_inside_its_window(self):
        F = solve_lambda_massive(5.38).gain_F
        assert 1.53 < F < 1.54
        # The massive curve tops the finite-sample cap, which is what makes
        # the cap tight: no finite draw reaches it, the limit exceeds it.
        assert F > IMPROVED_GAIN_CAP


@pytest.fixture(scope="module")
def reports():
    return run_suite(SampleSpec(seed=7, n_samples=10))


class TestRunSuite:
    def test_report_order(self, reports):
        assert [r.check_name for r in reports] == REPORT_ORDER

    def test_all_pass(self, reports):
        assert suite_passed(reports)
        for report in reports:
            assert report.passed, report.line()
            assert report.worst_slack >= -NUMERIC_SLOP

    def test_sample_counts(self, reports):
        by_name = {r.check_name: r for r in reports}
        assert by_name["point_bounds"].samples == 5 * 10
        assert by_name["root_quality"].samples == 3 * 10
        assert by_name["sandwich_large_k"].samples == 8
        assert by_name["tail_bounds"].samples == 136
        assert by_name["derivative_consistency"].samples == 56
        assert by_name["curve_shape"].samples == 26
        assert by_name["global_gain_bounds"].samples == 3 * 10 + 2

    def test_deterministic(self, reports):
        assert run_suite(SampleSpec(seed=7, n_samples=10)) == reports

    def test_solver_errors_propagate(self, monkeypatch):
        # With no slope floor the batch hands every element to the scalar
        # solver, whose two Newton steps cannot narrow any sample's bracket
        # to LAMBDA_TOL; the suite raises its error instead of reporting it.
        monkeypatch.setattr(macgain.verify, "_slope_floor_many", _no_floor)
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="after 2 iterations"):
            run_suite(SampleSpec(seed=1, n_samples=10))

    def test_sabotage_is_flagged(self):
        reports = run_suite(SampleSpec(seed=7, n_samples=10), sabotage=True)
        assert not suite_passed(reports)
        by_name = {r.check_name: r for r in reports}
        quality = by_name["root_quality"]
        # Every sampled root moved off by 0.5 must fail the residual gate.
        assert quality.violations == 10
        assert quality.worst_slack < -1e-9
        assert "residual_within_tol" in quality.witness
        # Off the root the fixed-point ceiling fails, which proves the slack
        # machinery can see a bad root.
        point = by_name["point_bounds"]
        assert point.violations >= 1
        assert "fixed_point_ceiling" in point.witness
        assert point.worst_slack < -1e-3
        # Checks that never see the perturbed roots still pass.
        assert by_name["tail_bounds"].passed
        assert by_name["curve_shape"].passed


# Report lines of the default suite and of the sabotage control, recorded
# from the scalar per-sample solver.  The batched suite must reproduce them
# byte for byte.  The sandwich_large_k slack is that of the balanced-form
# root at K=1e8; 50-digit arithmetic gives 2.308710058e-06.  The
# root_quality line moves with the batch's Newton points: its worst slack is
# the float noise of the per-user residual at K = 2, in steps of 8.9e-16.
GOLDEN_LINES = [
    "point_bounds: pass samples=50000 violations=0 worst_slack=1.087676e-07 "
    "witness[bracket_cap at K=9921 P=930.265]",
    "root_quality: pass samples=30000 violations=0 worst_slack=9.999112e-11 "
    "witness[residual_within_tol at K=2 P=979.798]",
    "sandwich_large_k: pass samples=8 violations=0 worst_slack=2.308710e-06 "
    "witness[fixed_point_ceiling at K=100000000 P=1]",
    "tail_bounds: pass samples=136 violations=0 worst_slack=7.238240e-08 "
    "witness[large_power_tight_cap at pi=1e+06]",
    "derivative_consistency: pass samples=56 violations=0 worst_slack=9.384059e-06 "
    "witness[derivative_fd_match at K=2, pi=1000]",
    "curve_shape: pass samples=26 violations=0 worst_slack=0.000000e+00 "
    "witness[F_unimodal at K=2]",
    "global_gain_bounds: pass samples=30002 violations=0 worst_slack=1.061291e-04 "
    "witness[improved_cap at K=4292 P=0.00126205]",
]

GOLDEN_SABOTAGE_LINES = [
    "point_bounds: FAIL samples=49 violations=14 worst_slack=-4.379128e-01 "
    "witness[fixed_point_ceiling at K=3406 P=2.09404]",
    "root_quality: FAIL samples=30 violations=10 worst_slack=-4.116075e+00 "
    "witness[residual_within_tol at K=2 P=939.727]",
    "sandwich_large_k: pass samples=8 violations=0 worst_slack=2.308710e-06 "
    "witness[fixed_point_ceiling at K=100000000 P=1]",
    "tail_bounds: pass samples=136 violations=0 worst_slack=7.238240e-08 "
    "witness[large_power_tight_cap at pi=1e+06]",
    "derivative_consistency: pass samples=56 violations=0 worst_slack=9.384059e-06 "
    "witness[derivative_fd_match at K=2, pi=1000]",
    "curve_shape: pass samples=26 violations=0 worst_slack=0.000000e+00 "
    "witness[F_unimodal at K=2]",
    "global_gain_bounds: FAIL samples=32 violations=1 worst_slack=-9.060161e-03 "
    "witness[improved_cap at K=13 P=0.468228]",
]


class TestGoldenReports:
    def test_default_suite_lines(self):
        reports = run_suite(SampleSpec(seed=42, n_samples=10_000))
        assert [r.line() for r in reports] == GOLDEN_LINES

    def test_sabotage_suite_lines(self):
        # The sabotage clamp pins some roots at lam = K, where bracket_cap
        # is undefined: 49 point slacks from 10 samples, not 50.
        reports = run_suite(SampleSpec(seed=7, n_samples=10), sabotage=True)
        assert [r.line() for r in reports] == GOLDEN_SABOTAGE_LINES


def reference_report(check_name, tables, slop=NUMERIC_SLOP):
    """_report's rules as a plain loop over the entries, one at a time."""
    samples = violations = 0
    worst, witness = math.inf, ""
    for columns, label, valid in tables:
        for row in range(len(columns[0][1])):
            for col, (name, slacks) in enumerate(columns):
                if valid is not None and valid[col] is not None and not valid[col][row]:
                    continue
                slack = float(slacks[row])
                samples += 1
                if slack < worst:
                    worst, witness = slack, f"{name} {label(row)}"
                if not slack >= -slop:
                    violations += 1
    return BoundReport(check_name, samples, violations,
                       worst if samples else math.nan, witness)


def assert_same_report(report, expected):
    # line() rounds the worst slack to seven digits, which -1e-9 and its
    # neighbours share; repr tells them apart.
    assert report.line() == expected.line()
    assert repr(report.worst_slack) == repr(expected.worst_slack)


def at_row(row):
    return f"at row{row}"


# Entries of the generated tables: few values, so that ties are common, with
# NaN, both infinities, both zeros, and -1e-9 with its float neighbours.
SLACK_POOL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -1.0, -1e-9,
              math.nextafter(-1e-9, -math.inf), math.nextafter(-1e-9, math.inf)]


@st.composite
def slack_tables(draw):
    tables = []
    for table in range(draw(st.integers(0, 3))):
        rows, links = draw(st.integers(0, 40)), draw(st.integers(1, 6))
        entries = st.lists(st.sampled_from(SLACK_POOL), min_size=rows, max_size=rows)
        columns = [(f"link{link}", np.array(draw(entries), dtype=float))
                   for link in range(links)]
        mask = st.one_of(
            st.none(), st.just(np.zeros(rows, dtype=bool)),
            st.lists(st.booleans(), min_size=rows, max_size=rows).map(
                lambda bits: np.array(bits, dtype=bool)))
        valid = draw(st.none() | st.lists(mask, min_size=links, max_size=links))
        tables.append((columns, lambda row, table=table: f"in table{table} row{row}", valid))
    return tables


class TestReport:
    def test_table_matches_entry_loop(self):
        # Ties, a NaN, a -inf, skipped entries and a violation.
        columns = [
            ("a", np.array([0.5, 0.2, math.nan, 0.2, 1.0])),
            ("b", np.array([0.2, -1.0, 0.3, -math.inf, -1.0])),
            ("c", np.array([math.nan, 0.4, -2.0, 0.1, 0.0])),
        ]
        valid = [None, np.array([True, True, True, False, True]),
                 np.array([True, True, False, True, True])]
        tables = [(columns, at_row, valid)]
        assert _report("t", tables) == reference_report("t", tables)
        assert _report("t", tables).witness == "b at row1"

    @settings(max_examples=150, deadline=None)
    @given(slack_tables(), st.sampled_from([NUMERIC_SLOP, 0.0]))
    def test_matches_entry_loop_on_ties_nans_and_masks(self, tables, slop):
        assert_same_report(_report("t", tables, slop=slop),
                           reference_report("t", tables, slop=slop))

    def test_all_nan_table_has_no_witness(self):
        tables = [([("a", np.array([math.nan]))], at_row, None)]
        report = _report("t", tables)
        assert report == reference_report("t", tables)
        assert report.violations == 1 and report.witness == ""

    def test_empty_table_counts_nothing(self):
        # A check handed no points, e.g. check_tail_bounds on empty arrays.
        report = _report("t", [([("a", np.array([])), ("b", np.array([]))], at_row, None)])
        assert report[:3] == ("t", 0, 0) and report.witness == ""
        assert math.isnan(report.worst_slack)
        assert check_tail_bounds(np.array([]), np.array([])).samples == 0

    def test_first_table_wins_a_tie(self):
        tables = [
            ([("a", np.array([0.3, 0.1]))], at_row, None),
            ([("b", np.array([0.1])), ("c", np.array([0.1]))], lambda row: "in b", None),
        ]
        report = _report("t", tables)
        assert report == reference_report("t", tables)
        assert report.samples == 4 and report.witness == "a at row1"

    def test_zero_slop_counts_every_negative_slack(self):
        tables = [([("a", np.array([0.0, -1e-12, -1e-10, 1.0]))], at_row, None)]
        assert _report("t", tables).violations == 0
        report = _report("t", tables, slop=0.0)
        assert report == reference_report("t", tables, slop=0.0)
        assert report.violations == 2 and report.witness == "a at row2"

    def test_a_nan_alone_is_a_violation_and_never_the_witness(self):
        # The column's plain minimum is NaN, so it is counted and reduced
        # again: one violation, and the smallest real slack is the witness.
        tables = [([("a", np.array([0.5, 0.1, 0.4])), ("b", np.array([0.3, math.nan, 0.2]))],
                   at_row, None)]
        report = _report("t", tables)
        assert report == reference_report("t", tables)
        assert report.violations == 1 and report.worst_slack == 0.1
        assert report.witness == "a at row1"

    @pytest.mark.parametrize("slop", [NUMERIC_SLOP, 0.0])
    def test_exactly_minus_slop_passes_and_one_ulp_below_fails(self, slop):
        edge = -slop
        below = math.nextafter(edge, -math.inf)
        for slacks, violations in (([0.5, edge, 1.0], 0), ([0.5, below, 1.0], 1)):
            tables = [([("a", np.array(slacks))], at_row, None)]
            report = _report("t", tables, slop=slop)
            assert report == reference_report("t", tables, slop=slop)
            assert report.violations == violations and report.witness == "a at row1"
            assert repr(report.worst_slack) == repr(slacks[1])

    def test_masked_out_nan_and_minus_inf_count_nothing(self):
        columns = [("a", np.array([math.nan, 0.4, -math.inf, 0.2])),
                   ("b", np.array([-math.inf, 0.3, math.nan, 0.7]))]
        valid = [np.array([False, True, False, True]), np.array([False, True, False, True])]
        tables = [(columns, at_row, valid)]
        report = _report("t", tables)
        assert report == reference_report("t", tables)
        assert report.samples == 4 and report.violations == 0
        assert report.worst_slack == 0.2 and report.witness == "a at row3"


# SHA-256 over the report lines, in order, of the default suites of nine
# seeds and then of four 200-sample sabotage suites, recorded when the
# batch's first passes went to float32, which moved the nine root_quality
# lines and no other.  A root or scoring change that moves any line fails
# here.
REPORT_SEEDS, SABOTAGE_SEEDS = (1, 2, 3, 5, 7, 11, 42, 101, 202), (1, 3, 7, 9)
REPORT_DIGEST = "fa19ec6d9f28ac585283d49f775119a974dde7949d0b70f880e86582e99054cb"


def test_report_lines_match_their_digest():
    digest = hashlib.sha256()
    suites = [run_suite(SampleSpec(seed, 10_000)) for seed in REPORT_SEEDS] + [
        run_suite(SampleSpec(seed, 200), sabotage=True) for seed in SABOTAGE_SEEDS]
    for reports in suites:
        for report in reports:
            digest.update(report.line().encode())
    assert digest.hexdigest() == REPORT_DIGEST


@pytest.mark.parametrize("seed, n_samples",
                         [(seed, 10_000) for seed in REPORT_SEEDS] + [(42, MAX_SAMPLES)])
def test_residual_at_the_roots_is_float_noise(seed, n_samples):
    # root_quality's bar is ROOT_RESIDUAL_TOL = 1e-10; at the batch's roots
    # the per-user residual stays within 2.5e-14 (worst 1.87e-14, at K = 2
    # and P near 875 on seed 42 at 100000 samples).
    K, P = draw_samples(SampleSpec(seed, n_samples))
    K = K.astype(float)
    lam = _root_many(K, K * P)
    res = _balance(lam, K, P, np.log1p) / (K * (K - 1.0))
    assert np.max(np.abs(res)) <= 2.5e-14


def seed_1_roots():
    K, P = draw_samples(SampleSpec(seed=1, n_samples=10_000))
    return K, P, _root_many(K.astype(float), K * P)


def test_float_user_counts_are_exact():
    # run_suite makes the drawn counts floats; every slack it takes from
    # them, at the roots and half a unit off them, is the same to the bit.
    K, P, lam = seed_1_roots()
    Kf = K.astype(float)
    assert np.array_equal(Kf, K) and (Kf * P).tobytes() == (K * P).tobytes()
    off = np.minimum(lam + 0.5, K)
    assert off.tobytes() == np.minimum(lam + 0.5, Kf).tobytes()
    for at in (lam, off):
        assert _balance(at, K, P, np.log1p).tobytes() == _balance(at, Kf, P, np.log1p).tobytes()
        assert _gain(K * P, at).tobytes() == _gain(Kf * P, at).tobytes()
        for (name, ints), (_, floats) in zip(point_bound_slacks(K, P, at),
                                             point_bound_slacks(Kf, P, at)):
            assert ints.tobytes() == floats.tobytes(), name


def expression_point_slacks(K, P, lam):
    """point_bound_slacks' five links as allocating expressions, one per link."""
    with np.errstate(all="ignore"):
        pi = K * P
        t = pi * lam
        log_term = np.log1p(t)
        upper = pi * lam * lam / (1.0 + (K - lam) * P * lam)
        return [
            ("log_bracket_lower", log_term - t * lam / (1.0 + t)),
            ("log_bracket_upper", upper - log_term),
            ("gain_floor", lam - K * log_term / (K + log_term)),
            ("fixed_point_ceiling", (1.0 + t) * (log_term / t) - lam),
            ("bracket_cap", K * lam / (K - lam) - upper),
        ]


def test_point_links_keep_the_bits_of_their_expressions():
    # point_bound_slacks writes each link over rows that it or its caller
    # owns; every link is the same IEEE operations as its expression, at the
    # roots and half a unit off them, for int and float counts alike.
    K, P, lam = seed_1_roots()
    for counts in (K, K.astype(float)):
        for at in (lam, np.minimum(lam + 0.5, K)):
            for (name, got), (_, want) in zip(point_bound_slacks(counts, P, at),
                                              expression_point_slacks(counts, P, at)):
                assert got.tobytes() == want.tobytes(), name


def scored_columns(monkeypatch, run):
    """Every column that run() hands _report, keyed by (check, table, link).

    Each is copied as it is handed over: run_suite reuses its rows, so a
    column read after its report would show what overwrote it.
    """
    columns = {}

    def capture(check_name, tables, **slop):
        for table, (links, _, _) in enumerate(tables):
            for name, slacks in links:
                columns[check_name, table, name] = np.copy(slacks)
        return _report(check_name, tables, **slop)

    with monkeypatch.context() as patch:
        patch.setattr(macgain.verify, "_report", capture)
        run()
    return columns


def fresh_suite_columns(monkeypatch, spec, sabotage):
    """run_suite's columns from the allocating formulas, each on fresh arrays."""
    large_K, large_P, curve_pis, tail_pis, limit_pis, fixed_K, fixed_pi, cuts = (
        macgain.verify._FIXED)
    K, P = draw_samples(spec)
    K = K.astype(float)
    lam, large_lam, curve_lams, fd_lams, limit_lams, tail_lams, (witness,) = np.split(
        _root_many(np.concatenate((K, fixed_K)), np.concatenate((K * P, fixed_pi))),
        K.size + cuts)
    if sabotage:
        lam = np.minimum(lam + 0.5, K)
    res = _balance(lam, K, P, np.log1p) / (K * (K - 1.0))
    F = _gain(K * P, lam)
    F_witness = math.log1p(5.38 * float(witness)) / math.log1p(5.38)
    large = dict(expression_point_slacks(large_K, large_P, large_lam))
    columns = {("point_bounds", 0, name): slacks
               for name, slacks in expression_point_slacks(K, P, lam)}
    columns.update({
        ("root_quality", 0, "residual_within_tol"): ROOT_RESIDUAL_TOL - np.abs(res),
        ("root_quality", 0, "lambda_at_least_1"): lam - 1.0,
        ("root_quality", 0, "lambda_at_most_K"): K - lam,
        ("sandwich_large_k", 0, "gain_floor"): large["gain_floor"],
        ("sandwich_large_k", 0, "fixed_point_ceiling"): large["fixed_point_ceiling"],
        ("global_gain_bounds", 0, "gain_at_least_1"): F - 1.0,
        ("global_gain_bounds", 0, "doubling_cap"): 2.0 - F,
        ("global_gain_bounds", 0, "improved_cap"): IMPROVED_GAIN_CAP - F,
        ("global_gain_bounds", 1, "near_extremal_witness_floor"): np.array([F_witness - 1.53]),
        ("global_gain_bounds", 1, "near_extremal_witness_cap"): np.array([1.54 - F_witness]),
    })
    return columns | scored_columns(monkeypatch, lambda: (
        check_tail_bounds(tail_pis, tail_lams), check_derivative(fd_lams),
        check_monotone_unimodal(curve_pis, curve_lams.reshape(-1, curve_pis.size),
                                limit_pis, limit_lams)))


@pytest.mark.parametrize("seed, n_samples, sabotage",
                         [(1, 10_000, False), (2, 10_000, False), (3, 10_000, False),
                          (42, MAX_SAMPLES, False), (7, 10_000, True), (7, 10, True)])
def test_suite_columns_keep_their_bits(monkeypatch, seed, n_samples, sabotage):
    # run_suite forms each shared term once in its one workspace and writes
    # every slack over a row whose contents are spent; each column it
    # scores must equal, byte for byte, the allocating formulas' on fresh
    # arrays: the links' expressions (which point_bound_slacks on fresh
    # arrays reproduces), the paper's balance form per user, and F.
    spec = SampleSpec(seed, n_samples)
    got = scored_columns(monkeypatch, lambda: run_suite(spec, sabotage))
    want = fresh_suite_columns(monkeypatch, spec, sabotage)
    assert sorted(got) == sorted(want)
    for key, slacks in want.items():
        assert (got[key].dtype, got[key].tobytes()) == (slacks.dtype, slacks.tobytes()), key


def traced_peak(fn, *args) -> int:
    """Bytes fn(*args) holds at most beyond what was live when it started."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoringMemory:
    # tracemalloc sees numpy's data buffers, and its peaks repeat exactly.
    def test_scoring_builds_no_table(self):
        # The seed-1 point_bounds table, 10000 x 5 with its bracket-cap
        # mask: a scorer that stacks the columns needs five at once.
        K, P, lam = seed_1_roots()
        K = K.astype(float)
        table = (point_bound_slacks(K, P, lam), str, [None] * 4 + [lam < K])
        assert traced_peak(_report, "point_bounds", [table]) < 2 * lam.nbytes

    def test_suite_peak(self):
        # 1111.5 KiB: the suite's one workspace of 10 x 12130 floats (948
        # KiB), the drawn powers and the bracket cap's masked column.  A
        # batch with its own workspace, scored on fresh arrays, peaked at
        # 1269.8 KiB; building the fixed grids and batch columns in every
        # suite at 1305 KiB, and scoring on stacked tables at 1542 KiB.
        spec = SampleSpec(seed=1, n_samples=10_000)
        run_suite(spec)
        assert traced_peak(run_suite, spec) <= 1130 * 1024


# Minor page faults of 50 seed-1 suites after 10 warm-up suites, in a new
# interpreter, printed per suite; argv[1] == "after_large" first runs one
# suite of MAX_SAMPLES samples.
_WARM_FAULTS = """
import resource, sys
from macgain.verify import MAX_SAMPLES, SampleSpec, run_suite
if sys.argv[1] == "after_large":
    run_suite(SampleSpec(1, MAX_SAMPLES))
spec = SampleSpec(1, 10_000)
for _ in range(10):
    run_suite(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    run_suite(spec)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts faults under glibc's malloc")
@pytest.mark.parametrize("state", ["fresh", "after_large"])
def test_a_warm_suite_never_faults(state):
    # glibc's default allocator raises its mmap threshold to the size of
    # the largest mapped block freed, and its trim threshold to twice that,
    # so once a suite has freed its workspace the next takes it from the
    # heap and gives no page back: a warm suite touches no new page, in a
    # new process or after a larger suite.  The environment's MALLOC_*
    # settings and glibc tunables, which would fix the thresholds, are left
    # out.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    result = subprocess.run([sys.executable, "-c", _WARM_FAULTS, state], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert float(result.stdout) <= 1.0


def _lines(reports):
    return [report.line() for report in reports]


def _fresh_suite_lines(seed, n_samples, sabotage):
    """The report lines of one suite run alone, in a new interpreter."""
    code = ("import sys; from macgain.verify import SampleSpec, run_suite\n"
            f"for r in run_suite(SampleSpec({seed}, {n_samples}), {sabotage}): print(r.line())")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, check=True)
    return result.stdout.splitlines()


class TestFixedInputs:
    """The seed-independent suite inputs, built once when verify is imported."""

    def test_match_what_the_public_constants_build(self):
        (large_K, large_P, curve_pis, tail_pis, limit_pis,
         fixed_K, fixed_pi, cuts) = macgain.verify._FIXED

        def grid(lo, hi, step):
            return np.array([db_to_linear(x) for x in db_grid(lo, hi, step)])

        h = DERIVATIVE_STEP
        tails = np.hstack([grid(-60.0, -10.0, 2.5), grid(30.0, 60.0, 2.5)])
        fd = np.outer(DERIVATIVE_GRID, (1.0, 1.0 + h, 1.0 - h))
        curves = grid(DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.1)
        expected = [
            (large_K, np.array([10**2, 10**4, 10**6, 10**8])), (large_P, np.ones(4)),
            (curve_pis, curves), (tail_pis, tails),
            (limit_pis, np.array([1e-3, 1e6]))]
        for got, want in expected:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                           want.tobytes())
        # The batch's fixed columns block by block, in the order the split reads.
        massive = np.hstack([[1e-3, 1e6], tails, [5.38]])
        blocks = [(np.array([1e2, 1e4, 1e6, 1e8]), np.array([1e2, 1e4, 1e6, 1e8]))] + [
            (np.full(pis.size, math.inf if users is None else float(users)), pis.ravel())
            for users_set, pis in ((DEFAULT_USERS, curves), (DERIVATIVE_USERS, fd))
            for users in users_set] + [(np.full(massive.size, math.inf), massive)]
        assert fixed_K.tobytes() == np.hstack([k for k, _ in blocks]).tobytes()
        assert fixed_pi.tobytes() == np.hstack([pi for _, pi in blocks]).tobytes()
        assert fixed_K.dtype == fixed_pi.dtype == np.float64
        sizes = [4, curves.size * len(DEFAULT_USERS), fd.size * len(DERIVATIVE_USERS),
                 2, tails.size]
        assert cuts.tolist() == np.cumsum([0] + sizes).tolist()
        assert fixed_K.size == cuts[-1] + 1 == 2130

    def test_are_read_only(self):
        for array in macgain.verify._FIXED:
            before = array.tobytes()
            with pytest.raises(ValueError):
                array[...] = 0
            with pytest.raises(ValueError):
                np.add(array, 1, out=array)
            assert array.tobytes() == before

    def test_a_suite_builds_no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("run_suite built a grid")

        expected = _lines(run_suite(SampleSpec(seed=1, n_samples=10_000)))
        monkeypatch.setattr(macgain.verify, "db_grid", refuse)
        monkeypatch.setattr(macgain.verify, "db_to_linear", refuse)
        assert _lines(run_suite(SampleSpec(seed=1, n_samples=10_000))) == expected

    def test_back_to_back_suites_match_suites_run_alone(self, monkeypatch):
        # No root, slack or report outlives its suite: each suite in a row
        # gives the lines it gives in a new interpreter, and each solves its
        # fixed points again in its own one batch.
        sizes = []

        def batch(K, pi, work):
            sizes.append(K.size)
            return _root_many(K, pi, work)

        monkeypatch.setattr(macgain.verify, "_root_many", batch)
        plans = [(1, 10_000, False), (2, 10_000, False), (7, 10_000, True)]
        in_a_row = [_lines(run_suite(SampleSpec(seed, n), sabotage))
                    for seed, n, sabotage in plans]
        assert sizes == [12130] * 3
        assert in_a_row == [_fresh_suite_lines(*plan) for plan in plans]
        assert "FAIL" in in_a_row[2][0]


def _shrink_start(monkeypatch, factor):
    """Scale _root_many's start to min(K, factor*(2 + 2a)); returns the starts it takes.

    The batch caps its start at K with np.minimum and uses it nowhere
    else, so verify's numpy is swapped for one whose minimum scales its
    first argument and logs the result.
    """
    starts = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def minimum(start, K, **kwargs):
            top = np.minimum(factor * start, K, **kwargs)
            starts.append(top.tolist())
            return top

    monkeypatch.setattr(macgain.verify, "np", Numpy())
    return starts


def _refuse_hand_off(config):
    raise AssertionError(f"handed to the scalar solver: {config}")


def _no_floor(pi, hi, work):
    """A slope floor of 0 for verify's batch, which then settles nothing."""
    return 0.0


def _rig_float64_passes(monkeypatch, first, second):
    """Make the batch's two float64 passes read (r, r') = first(w) and second(w).

    A pass given None reads the true residual; the float32 passes always do.
    """
    rigs = [first, second]

    def rigged(K, pi, lam, work):
        r, d = _fixed_point_many(K, pi, lam, work)
        if lam.dtype == np.float64:
            rig = rigs.pop(0)
            if rig is not None:
                r[...], d[...] = rig(lam)
        return r, d

    monkeypatch.setattr(macgain.verify, "_fixed_point_many", rigged)


# Rigged float64 passes (K, pi, first, second) that fail one condition of
# the batch's certificate each, and one that meets all of them.  At K = 2
# and pi = 1e26 the root is 1.4e-13 below hi = 2; the massive root at pi =
# 1e-14 lies 4.9e-15 above 1.  Each residual stays well inside the floor's
# bound but the one that fails it.
_CERTIFICATE_CASES = {
    "w_above_hi": (2, 1e26, lambda w: (w - (2.0 + 5e-14), 1.0), lambda w: (1e-13, 1.0)),
    "x_above_hi": (2, 1e26, lambda w: (w - (2.0 - 1e-13), 1.0), lambda w: (-2e-13, 1.0)),
    "x_below_1": (math.inf, 1e-14, None, lambda w: (1e-13, 1.0)),
    "long_step": (math.inf, 1000.0, None, lambda w: (1e-13, 1e-6)),
    "residual_above_floor": (math.inf, 1000.0, None, lambda w: (1e-9, 1e6)),
    "all_hold": (2, 1e26, lambda w: (w - (2.0 - 5e-14), 1.0), lambda w: (1e-13, 1.0)),
}


class TestBatchedSolve:
    """The certified batch against the scalar solvers it stands in for.

    What the batch's slope floor leaves it hands to eval_point
    (verify._root_many).
    """

    def test_nan_inside_the_bracket_goes_to_the_scalar_solver(self, monkeypatch):
        # The ends bracket the root, but the first Newton point is NaN: the
        # scalar solver raises there, so the batch must not keep the point.
        def fn(K, pi, lam, work):
            return np.where(np.abs(lam - 1.5) < 0.1, math.nan, lam - 1.5), np.ones_like(lam)

        handed = []

        def solve_one(config):
            handed.append(config)
            raise ConvergenceError("residual is NaN")

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", fn)
        monkeypatch.setattr(macgain.verify, "eval_point", solve_one)
        with pytest.raises(ConvergenceError):
            _root_many(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert handed == [(2, 0.5, 1.0)]

    def test_batch_roots_carry_their_own_brackets(self):
        # Each batch root x has the scalar residual < 0 at x - tol/4 and
        # > 0 at x + tol/4, inside [1, K]: a (-, +) bracket at most tol
        # wide, which is what the scalar solver accepts.  Its Newton points
        # differ from the scalar loop's, so the two roots may differ by a
        # few ulps; on this seed they are at most 4 apart.
        K, P = draw_samples(SampleSpec(seed=42, n_samples=500))
        lam = _root_many(K, K * P)
        quarter = 0.25 * LAMBDA_TOL
        for k, p, x in zip(K.tolist(), P.tolist(), lam.tolist()):
            below, above = x - quarter, x + quarter
            assert 1.0 <= below and above <= k and above - below <= LAMBDA_TOL
            r_below, r_above = (_fixed_point(float(k), k * p, y)[0] for y in (below, above))
            assert r_below < 0.0 < r_above
            assert abs(x - solve_lambda_star(k, p).lambda_star) <= 8.0 * math.ulp(x)

    def test_samples_match_scalar_solver(self):
        K, P = draw_samples(SampleSpec(seed=42, n_samples=10_000))
        lam = _root_many(K, K * P)
        want = np.array([solve_lambda_star(int(k), float(p)).lambda_star
                         for k, p in zip(K, P)])
        assert np.max(np.abs(lam - want) / want) <= 1e-10

    @pytest.mark.parametrize("users", DEFAULT_USERS)
    def test_curves_match_sweep(self, users):
        curve = sweep_curve(users, -10.0, 30.0, 0.1)
        pis = np.array([pt.pi for pt in curve])
        want = np.array([pt.lam for pt in curve])
        lam = _root_many(np.full(pis.size, math.inf if users is None else users), pis)
        assert np.max(np.abs(lam - want) / want) <= 1e-10

    def test_vanishing_power_degenerates(self):
        # At P=1e-20 the residual is 0 at lam = 1; at 1e-9 it is negative.
        # The batch's Newton steps reach 1 for the first, an exact zero,
        # which the floor settles, as the scalar solver pins it.
        assert solve_lambda_star(100, 1e-20).degenerate
        assert not solve_lambda_star(100, 1e-9).degenerate
        K = np.array([100, 100, 3])
        lam = _root_many(K, K * np.array([1e-20, 1e-9, 10.0]))
        assert lam[0] == 1.0
        assert lam[1] == pytest.approx(solve_lambda_star(100, 1e-9).lambda_star,
                                       rel=1e-15)
        assert lam[2] == pytest.approx(solve_lambda_star(3, 10.0).lambda_star,
                                       rel=1e-10)

    def test_unconverged_element_raises_like_scalar(self, monkeypatch):
        # With no slope floor every element goes to the scalar solver, where
        # four evaluations settle K=100 at pi=100 (it takes 4) but not K=10
        # at pi=100 (it takes 5): the batch raises its error for the second.
        monkeypatch.setattr(macgain.verify, "_slope_floor_many", _no_floor)
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 4)
        solve_lambda_star(100, 1.0)
        with pytest.raises(ConvergenceError, match="after 4 iterations"):
            solve_lambda_star(10, 10.0)
        with pytest.raises(ConvergenceError,
                           match="after 4 iterations for K=10, P=10.0"):
            _root_many(np.array([100, 10, 100]), np.array([100.0, 100.0, 100.0]))

    def test_first_failure_in_input_order_wins(self, monkeypatch):
        # With no slope floor both elements go to the scalar solver, whose
        # two evaluations settle neither; each raises there.
        monkeypatch.setattr(macgain.verify, "_slope_floor_many", _no_floor)
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 2)
        K, pi = np.array([2, 10]), np.array([1000.0, 1000.0])
        for order, first in (([0, 1], "K=2, P="), ([1, 0], "K=10, P=")):
            with pytest.raises(ConvergenceError, match=first):
                _root_many(K[order], pi[order])

    def test_overflowing_massive_slack_raises(self, monkeypatch):
        # The batch's residual has no log split: where pi*lam overflows, at
        # a root or at the first upper end (at 2.5327e305, 2.7e-4 above the
        # root, where the root's t is 1.79769e308), its Newton point is NaN
        # and the element goes to the scalar solver.  So does 1e300, whose
        # root, 697, is beyond what the slope floor settles.  The scalar
        # solver solves each, or raises its own error naming it.
        top = np.array([1e300, db_to_linear(3070.0), db_to_linear(3080.0),
                        2.5327355556134235e305])
        handed = []

        def scalar(config):
            handed.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        lam = _root_many(np.full(top.size, math.inf), top)
        assert handed == top.tolist()
        assert lam.tolist() == [solve_lambda_massive(pi).lambda_star for pi in top]
        # The batch settles 5.38 and hands the other two to the scalar
        # solver, which, allowed one evaluation (it takes 3 for each),
        # raises for the first in input order.
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=re.escape(f"pi={float(top[2])!r}")):
            _root_many(np.full(3, math.inf), np.array([top[2], 1e300, 5.38]))

    def test_bound_below_the_root_goes_to_the_scalar_solver(self, monkeypatch):
        # Halved, the batch's start at pi = 1000 is 7.91, below the massive
        # lam = 9.12, so that element's bracket is (-, -) and its first
        # Newton point lies above the start; K = 10's lam = 5.80 at the same
        # power is still below it.  Only the scalar solver may decide the
        # first: it solves it with its own bound, or raises once that is
        # scaled by 0.7 (6.38).
        handed = []

        def scalar(config):
            handed.append(config.users)
            return eval_point(config)

        starts = _shrink_start(monkeypatch, 0.5)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        K, pis = np.array([10, math.inf]), np.array([1000.0, 1000.0])
        lam = _root_many(K, pis)
        assert starts == [pytest.approx([7.908, 7.908], abs=1e-3)]
        assert handed == [None]
        assert lam[0] == pytest.approx(solve_lambda_star(10, 100.0).lambda_star, rel=1e-14)
        assert lam[1] == solve_lambda_massive(1000.0).lambda_star
        monkeypatch.setattr(macgain.solvers, "_lambda_bound",
                            lambda pi, a: 0.7 * _lambda_bound(pi, a))
        with pytest.raises(BracketError, match="pi=1000.0"):
            _root_many(K, pis)

    def test_a_short_step_settles_nothing_by_itself(self, monkeypatch):
        # A slope read 1e15 times too steep makes the first step shorter
        # than tol/4 at the start, far above the root: the floor sees the
        # large residual there, and every element goes to the scalar solver.
        def steep(K, pi, lam, work):
            r, d = _fixed_point_many(K, pi, lam, work)
            return r, np.multiply(d, 1e15, out=d)

        handed = []

        def scalar(config):
            handed.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", steep)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        pis = np.array([0.1, 5.38, 1000.0])
        lam = _root_many(np.full(3, math.inf), pis)
        assert handed == pis.tolist()
        assert lam.tolist() == [solve_lambda_massive(pi).lambda_star for pi in pis]

    def test_with_no_floor_every_element_goes_to_the_scalar_solver(self, monkeypatch):
        # The slope floor is the batch's one acceptance rule.  At 0 it
        # settles nothing, so every element, finite, massive or at the cap,
        # goes to eval_point in input order and takes its root bit for bit.
        monkeypatch.setattr(macgain.verify, "_slope_floor_many", _no_floor)
        handed = []

        def scalar(config):
            handed.append(config)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        K = np.array([3, 10, 100, 2, 2, math.inf, math.inf])
        pi = np.array([1.0, 5.0, 30.0, 1000.0, 1e26, 5.38, 1e-3])
        lam = _root_many(K, pi)
        configs = [ChannelConfig(None if k == math.inf else int(k), total_power=p)
                   for k, p in zip(K.tolist(), pi.tolist())]
        assert handed == configs
        scalar_roots = [eval_point(config).lambda_star for config in configs]
        assert lam.tobytes() == np.array(scalar_roots).tobytes()

    def test_a_root_by_the_cap_settles_with_the_cap_as_witness(self, monkeypatch):
        # At K = 2 and pi = 1e26 the root is 1.4e-13 below the cap, where
        # the batch starts: the first pass steps down to it from K, whose
        # residual is > 0, and the second reads r = 0 there.  The floor
        # settles it in the batch, at the scalar solver's root.
        handed = []

        def scalar(config):
            handed.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        lam = _root_many(np.array([2, 2]), np.array([1e26, 1000.0]))
        assert handed == []
        assert 2.0 - 0.25 * LAMBDA_TOL < lam[0] < 2.0
        assert lam[0] == solve_lambda_star(2, 5e25).lambda_star

    def test_every_call_makes_five_passes_whatever_it_hands_over(self, monkeypatch):
        # The batch runs one fixed schedule over every element: three
        # float32 Newton passes, then two float64 ones, and no other
        # residual call.  A call that hands nothing over makes them; so does
        # one where an overflowing power reads NaN and one with a halved
        # start, below its root, steps out of [1, hi], both going to the
        # scalar solver.
        passes = []

        def counted(K, pi, lam, work):
            passes.append((lam.size, lam.dtype.name))
            return _fixed_point_many(K, pi, lam, work)

        handed = []

        def scalar(config):
            handed.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", counted)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        schedule = [(2, "float32")] * 3 + [(2, "float64")] * 2
        _root_many(np.full(2, math.inf), np.array([5.38, 1000.0]))
        assert handed == [] and passes == schedule
        passes.clear()
        starts = _shrink_start(monkeypatch, 0.5)
        pis = np.array([db_to_linear(3070.0), 1000.0])
        lam = _root_many(np.full(2, math.inf), pis)
        assert handed == pis.tolist()
        assert lam.tolist() == [solve_lambda_massive(pi).lambda_star for pi in pis]
        assert len(starts) == 1
        assert passes == schedule

    @pytest.mark.parametrize("case", list(_CERTIFICATE_CASES))
    def test_each_certificate_condition_hands_over(self, monkeypatch, case):
        # The batch settles x = w - step only where w <= hi, x lies in [1,
        # hi], |step| < LAMBDA_TOL/4 and |r(w)| + E is within the slope
        # floor's bound.  Each rig fails one condition, and the element goes
        # to the scalar solver, which roots it by its own rule; the rig that
        # meets them all settles at x.
        K, pi, first, second = _CERTIFICATE_CASES[case]
        handed = []

        def scalar(config):
            handed.append(config)
            return eval_point(config)

        _rig_float64_passes(monkeypatch, first, second)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        (lam,) = _root_many(np.array([K]), np.array([pi])).tolist()
        config = ChannelConfig(None if K == math.inf else K, total_power=pi)
        if case == "all_hold":
            assert handed == [] and lam == (2.0 - 5e-14) - 1e-13
        else:
            assert handed == [config] and lam == eval_point(config).lambda_star

    @pytest.mark.parametrize("bad", [0.0, -0.5, -2.0, math.nan, math.inf,
                                     math.expm1(-1.0)])
    def test_invalid_power_raises_scalar_message(self, bad):
        # The batch has no power check of its own: the element reaches the
        # scalar solver's config validation.  At expm1(-1) the start 2 + 2a
        # is exactly 0, below 1, so no pass settles the element.
        message = f"total power must be a positive finite power, got {bad!r}"
        for K in ([10, 10, 2], [math.inf] * 3):
            with pytest.raises(ValueError, match=re.escape(message)):
                _root_many(np.array(K), np.array([1.0, bad, bad]))

    def test_merged_batches_equal_their_parts(self):
        # run_suite solves the points of every check in one batch, so no
        # root may depend on what else rides in it.  Among the parts: a
        # high-power finite case (K = 2 at pi = 1000), degenerate pins handed
        # to the scalar solver, a cap root and massive curves.
        K, P = draw_samples(SampleSpec(seed=42, n_samples=2000))
        inf = math.inf
        massive = db_to_linear(np.arange(-100, 301) / 10.0)
        parts = [(K, K * P), (np.array([2, 10**8]), np.array([1000.0, 1e8])),
                 (np.array([100, 3, 2]), np.array([1e-18, 30.0, 2e50])),
                 (np.full(massive.size, inf), massive),
                 (np.full(4, inf), np.array([1e-20, 5.38, 1e-3, 1e6]))]
        for order in (slice(None), slice(None, None, -1)):
            whole = _root_many(*(np.hstack(c) for c in zip(*parts[order])))
            assert whole.tobytes() == np.hstack(
                [_root_many(k, pi) for k, pi in parts[order]]).tobytes()

    @pytest.mark.parametrize("dtype", [int, float])
    def test_leaves_its_arguments_as_they_were(self, dtype):
        # np.asarray(K, dtype=float) hands back a float K itself, so a write
        # into the batch's workspace that reached K or pi would show here,
        # and a second call on the same arrays would differ from the first.
        K, P = draw_samples(SampleSpec(seed=3, n_samples=500))
        K = np.hstack([K, [2, 10**8], np.full(3, 2)]).astype(dtype)
        pi = np.hstack([K[:-3] * np.hstack([P, [1000.0, 1.0]]), [1e26, 1e-20, 1e308]])
        if dtype is float:
            K[-3:] = [math.inf, 2.0, math.inf]
        before = K.tobytes(), pi.tobytes()
        first = _root_many(K, pi)
        assert (K.tobytes(), pi.tobytes()) == before
        assert _root_many(K, pi).tobytes() == first.tobytes()
        assert (K.tobytes(), pi.tobytes()) == before

    def test_default_suite_batch_figures(self, monkeypatch):
        # README's figures for the default seed-1 suite, counted through the
        # residual seam inside _root_many: 3 float32 and 2 float64 Newton
        # passes, each over all 12130 elements, after which the slope floor,
        # the batch's one acceptance rule, settles every element: none goes
        # to the scalar solver.  The float32 passes leave every element
        # within 3.9e-7 of its root, relative, and 61% below it.  Every
        # element settles in the second float64 pass, the first that may;
        # its witness, where that pass stepped from, reads > 0 for 65% of
        # the elements, < 0 for 13% and exactly 0 for 23%.
        calls, handed, inside, steps, points = [], [], [False], [], []

        def counted(K, pi, lam, work):
            if inside[0]:
                points.append(lam.astype(float))
            r, d = _fixed_point_many(K, pi, lam, work)
            if inside[0]:
                calls.append((lam.size, lam.dtype.name))
                steps.append(r / d)
            return r, d

        def batch(K, pi, work):
            inside[0] = True
            try:
                return _root_many(K, pi, work)
            finally:
                inside[0] = False

        def scalar(config):
            handed.append(config)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", counted)
        monkeypatch.setattr(macgain.verify, "_root_many", batch)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        assert suite_passed(run_suite(SampleSpec(seed=1, n_samples=10_000)))
        assert calls == [(12130, "float32")] * 3 + [(12130, "float64")] * 2
        assert handed == []
        K, P = draw_samples(SampleSpec(seed=1, n_samples=10_000))
        *_, fixed_K, fixed_pi, _ = macgain.verify._FIXED
        roots = _root_many(np.concatenate((K, fixed_K)), np.concatenate((K * P, fixed_pi)))
        assert np.max(np.abs(points[3] - roots) / roots) <= 3.9e-7
        assert round(float(np.mean(points[3] < roots)), 2) == 0.61
        settling = steps[4]
        assert np.all(np.abs(settling) < 0.25 * LAMBDA_TOL)
        shares = [round(float(np.mean(share)), 2)
                  for share in (settling > 0.0, settling < 0.0, settling == 0.0)]
        assert shares == [0.65, 0.13, 0.23]

    def test_the_first_passes_run_in_float32(self, monkeypatch):
        # The first three residual calls take float32 K, pi, points and
        # workspace and return float32 (r, r'), so a silent upcast fails;
        # their operands are views of the float64 workspace the later
        # calls write into, so the float32 passes allocate no array.
        calls = []

        def recorded(K, pi, lam, work):
            r, d = _fixed_point_many(K, pi, lam, work)
            calls.append(([a.dtype.name for a in (K, pi, lam, work, r, d)],
                          [np.shares_memory(a, work) for a in (K, pi, lam)], work))
            return r, d

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", recorded)
        K, P = draw_samples(SampleSpec(seed=1, n_samples=10_000))
        _root_many(K, K * P)
        assert [dtypes for dtypes, _, _ in calls] == (
            [["float32"] * 6] * 3 + [["float64"] * 6] * 2)
        assert [shared for _, shared, _ in calls[:3]] == [[True] * 3] * 3
        work = calls[-1][2]
        assert all(np.shares_memory(work32, work) for _, _, work32 in calls[:3])

    def test_the_first_float64_pass_settles_nothing(self, monkeypatch):
        # The float32 passes' point may lie below G_2(pi), where the slope
        # floor proves nothing, so the first float64 pass only steps.  At
        # P = 1e-20 the float32 passes reach lam = 1, where the float64
        # residual is exactly 0: the step is 0, yet the element settles only
        # in the second float64 pass.
        dtypes = []

        def counted(K, pi, lam, work):
            dtypes.append(lam.dtype.name)
            return _fixed_point_many(K, pi, lam, work)

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", counted)
        monkeypatch.setattr(macgain.verify, "eval_point", _refuse_hand_off)
        lam = _root_many(np.array([100.0]), np.array([1e-18]))
        assert lam.tolist() == [1.0] and _fixed_point(100.0, 1e-18, 1.0)[0] == 0.0
        assert dtypes == ["float32"] * 3 + ["float64"] * 2

    @pytest.mark.parametrize("K, pi", [
        (math.inf, 1e39), (10.0, 1e39), (2.0, 1e39),  # pi is inf in float32
        (math.inf, 1e-39), (10.0, 1e-39),  # subnormal in float32
        (math.inf, 1e-45), (10.0, 1e-45),  # the least float32 subnormal
        (1e300, 5.38), (1e300, 1000.0),  # K is inf in float32
    ])
    def test_float32_overflow_and_underflow(self, monkeypatch, K, pi):
        # Where a float32 form overflows, the float32 point is NaN and the
        # float64 passes start at hi; where it underflows or K is inf, the
        # float32 passes still land near the root.  Either way the batch
        # root is within 8 ulps of eval_point's, or eval_point gave it.
        handed, points = [], []

        def recorded(K, pi, lam, work):
            points.append(lam.astype(float).tolist())
            return _fixed_point_many(K, pi, lam, work)

        def scalar(config):
            handed.append(config)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", recorded)
        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        with np.errstate(over="ignore"):
            K32, pi32 = np.float32(K), np.float32(pi)
        assert math.inf in (K32, pi32) or 0.0 < pi32 < np.finfo(np.float32).tiny
        (x,) = _root_many(np.array([K]), np.array([pi])).tolist()
        want = eval_point(ChannelConfig(None if K == math.inf else int(K),
                                        total_power=pi)).lambda_star
        if handed:
            assert x == want
        else:
            assert abs(x - want) <= 8.0 * math.ulp(want)
        if pi32 == math.inf:
            hi = min(K, 2.0 + 2.0 * np.log1p(pi))
            assert math.isnan(points[2][0]) and points[3][0] == hi

    @pytest.mark.parametrize("sabotage", [False, True])
    @pytest.mark.parametrize("seed, n_samples",
                             [(1, 10_000), (2, 10_000), (3, 10_000), (13, 10_000),
                              (42, 10_000), (42, MAX_SAMPLES)],
                             ids=["1", "2", "3", "13", "42", f"42-{MAX_SAMPLES}"])
    def test_default_suites_hand_nothing_to_the_scalar_solver(self, monkeypatch, seed,
                                                              n_samples, sabotage):
        # From the start min(K, 2 + 2a) every element of a default suite,
        # and of the CLI's largest plan, is settled and certified by the
        # batch's own passes: the slope floor covers the whole sample box.
        handed = []

        def scalar(config):
            handed.append(config)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        run_suite(SampleSpec(seed=seed, n_samples=n_samples), sabotage)
        assert handed == []

    def test_default_suite_settles_every_sample_in_the_batch(self, monkeypatch):
        # Every root of a suite, sabotaged or not, comes from one batch; no
        # check solves on its own.  A batch that handed samples or curve
        # points to the scalar solvers would add calls.
        calls = dict.fromkeys(["solve_lambda_star", "solve_lambda_massive",
                               "eval_point", "sweep_curve", "_root_many"], 0)

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return wrapper

        for module in (macgain.solvers, macgain.verify):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        want = dict.fromkeys(calls, 0) | {"_root_many": 1}
        for spec, sabotage in ((SampleSpec(seed=42, n_samples=10_000), False),
                               (SampleSpec(seed=7, n_samples=10), True)):
            calls.update(dict.fromkeys(calls, 0))
            run_suite(spec, sabotage)
            assert calls == want
