"""Tests of the executable verification suite: sampling, slack tracking,
the individual checks, and the sabotage negative control."""

from __future__ import annotations

import math
import re

import pytest

import numpy as np

import macgain.solvers
import macgain.verify
from conftest import scalar_derivative_roots
from macgain.core import _fixed_point, db_to_linear, dlambda_dpi
from macgain.solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    DEFAULT_USERS,
    ConvergenceError,
    _bisect,
    eval_point,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)
from macgain.verify import (
    _bisect_many,
    _report,
    _root_many,
    BoundReport,
    DERIVATIVE_GRID,
    DERIVATIVE_USERS,
    IMPROVED_GAIN_CAP,
    MAX_SAMPLES,
    NUMERIC_SLOP,
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
        report = check_derivative(*scalar_derivative_roots())
        assert report.check_name == "derivative_consistency"
        assert report.passed
        assert report.samples == 2 * len(DERIVATIVE_USERS) * len(DERIVATIVE_GRID)
        assert report.worst_slack > 0.0

    @pytest.mark.parametrize("error, flagged", [(2e-5, True), (5e-6, False)])
    def test_flags_slope_errors_near_the_bound(self, monkeypatch, error, flagged):
        # The step's error budget (test_oracle) leaves the 1e-5 bound sharp:
        # a slope 2e-5 off fails at every power on every curve, one 5e-6 off
        # still passes.
        def skewed(users, pi, lam):
            return (1.0 + error) * dlambda_dpi(users, pi, lam)

        monkeypatch.setattr(macgain.verify, "dlambda_dpi", skewed)
        report = check_derivative(*scalar_derivative_roots())
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
        # Five bisection steps cannot narrow any sample's bracket to
        # LAMBDA_TOL; the suite raises the scalar solver's error instead of
        # reporting it.
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 5)
        with pytest.raises(ConvergenceError, match="after 5 iterations"):
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
# root at K=1e8; 50-digit arithmetic gives 2.308710058e-06.
GOLDEN_LINES = [
    "point_bounds: pass samples=50000 violations=0 worst_slack=1.087676e-07 "
    "witness[bracket_cap at K=9921 P=930.265]",
    "root_quality: pass samples=30000 violations=0 worst_slack=9.998579e-11 "
    "witness[residual_within_tol at K=2 P=957.194]",
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
                if valid is not None and not valid[row, col]:
                    continue
                slack = float(slacks[row])
                samples += 1
                if slack < worst:
                    worst, witness = slack, f"{name} {label(row)}"
                if not slack >= -slop:
                    violations += 1
    return BoundReport(check_name, samples, violations,
                       worst if samples else math.nan, witness)


def at_row(row):
    return f"at row{row}"


class TestReport:
    def test_table_matches_entry_loop(self):
        # Ties, a NaN, a -inf, skipped entries and a violation.
        columns = [
            ("a", np.array([0.5, 0.2, math.nan, 0.2, 1.0])),
            ("b", np.array([0.2, -1.0, 0.3, -math.inf, -1.0])),
            ("c", np.array([math.nan, 0.4, -2.0, 0.1, 0.0])),
        ]
        valid = np.ones((5, 3), dtype=bool)
        valid[2, 2] = valid[3, 1] = False
        tables = [(columns, at_row, valid)]
        assert _report("t", tables) == reference_report("t", tables)
        assert _report("t", tables).witness == "b at row1"

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


class TestBatchedSolve:
    """The batched bisection against the scalar solvers it stands in for."""

    @pytest.mark.parametrize(
        "lo, hi, root, tol, max_iter",
        [
            (0.0, 1.0, 0.3, 1e-12, 200),  # ordinary root
            (0.0, 1.0, 0.5, 1e-12, 200),  # exact zero at the first midpoint
            (0.0, 1.0, 0.3, 1e-30, 7),  # iteration cap
            (1.0, math.nextafter(1.0, 2.0), 2.0, 0.0, 200),  # no float between ends
            (-3.0, 5.0, 1.0 / 3.0, 1e-15, 200),
            (0.0, 1.0, 0.5, 2.0, 200),  # no step; |f| ties, lo wins
        ],
    )
    def test_kernel_matches_scalar_bisect(self, lo, hi, root, tol, max_iter):
        # Four copies of the bracket, so every lane must take the same path.
        x, fx, iters = _bisect_many(
            lambda x, i: x - root, np.full(4, lo), np.full(4, hi),
            np.full(4, lo - root), np.full(4, hi - root), tol, max_iter,
        )
        args = (lambda x: x - root, lo, hi, lo - root, hi - root, tol, max_iter)
        if max_iter == 7:
            # The scalar kernel raises at the cap; the batch reports the
            # steps, and its callers hand such lanes to the scalar solver.
            with pytest.raises(ConvergenceError, match="after 7 iterations"):
                _bisect(*args)
            assert list(iters) == [7] * 4
            return
        want = _bisect(*args)
        for lane in range(4):
            assert (float(x[lane]), float(fx[lane]), int(iters[lane])) == want

    def test_kernel_stops_a_nan_lane_alone(self):
        x, fx, iters = _bisect_many(
            lambda x, i: np.where(x > 0.0, x - 0.3, math.nan),
            np.array([0.0, -1.0]), np.array([1.0, 1.0]),
            np.array([-0.3, -1.3]), np.array([0.7, 0.7]), 1e-12, 200,
        )
        # Lane 0 runs on after lane 1 stops, exactly as the scalar loop.
        want = _bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7, 1e-12, 200)
        assert (float(x[0]), float(fx[0]), int(iters[0])) == want
        assert want[2] > 1
        assert math.isnan(fx[1]) and x[1] == 0.0 and iters[1] == 1

    @pytest.mark.parametrize(
        "fn, lo, hi, f_lo, f_hi, tol",
        [
            # An infinite end residual makes the regula-falsi point NaN.
            (lambda x: x * x - 0.2, 0.0, 1.0, -math.inf, 0.8, 1e-12),
            (lambda x: x * x - 0.2, 0.1, 1.0, -0.19, math.inf, 1e-12),
            # lo * f_hi overflows: the regula-falsi point is +inf, and the
            # projection puts it on the upper end.
            (lambda x: x - 1.3e200, 1e200, 2e200, -0.3e200, 0.7e200, 1e-12),
            # No float between the ends: no step at all.
            (lambda x: x - 1.0 - 2.0**-53, 1.0, math.nextafter(1.0, 2.0),
             -(2.0**-53), 2.0**-53, 0.0),
        ],
        ids=["nan_from_lower_inf", "nan_from_upper_inf", "projected_onto_end",
             "adjacent_floats"],
    )
    def test_fallback_takes_the_midpoint(self, fn, lo, hi, f_lo, f_hi, tol):
        scalar_steps, batch_steps = [], []

        def scalar_fn(x):
            scalar_steps.append(x)
            return fn(x)

        def batch_fn(x, i):
            batch_steps.append(float(x[0]))
            return fn(x)

        want = _bisect(scalar_fn, lo, hi, f_lo, f_hi, tol, 200)
        with np.errstate(all="ignore"):
            x, fx, iters = _bisect_many(batch_fn, np.array([lo]), np.array([hi]),
                                        np.array([f_lo]), np.array([f_hi]), tol, 200)
        assert (float(x[0]), float(fx[0]), int(iters[0])) == want
        assert batch_steps == scalar_steps
        if tol == 0.0:
            assert want[2] == 0 and want[0] in (lo, hi)
            return
        # The first step is the midpoint.  The kernel stops on an exact
        # zero or inside a (-, +) bracket at most tol wide.
        assert scalar_steps[0] == 0.5 * (lo + hi)
        below = max([lo] + [s for s in scalar_steps if fn(s) < 0.0])
        above = min([hi] + [s for s in scalar_steps if fn(s) > 0.0])
        assert want[1] == 0.0 or (above - below <= tol and below <= want[0] <= above)

    def test_nan_inside_the_bracket_goes_to_the_scalar_solver(self, monkeypatch):
        # The ends bracket the root, but the first ITP point is NaN: the
        # scalar solver raises there, so the batch must not keep the point.
        def fn(K, pi, lam):
            return np.where(np.abs(lam - 1.5) < 0.1, math.nan, lam - 1.5)

        handed = []

        def solve_one(config):
            handed.append(config)
            raise ConvergenceError("residual is NaN")

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", fn)
        monkeypatch.setattr(macgain.verify, "eval_point", solve_one)
        with pytest.raises(ConvergenceError):
            _root_many(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert handed == [(2, 0.5, 1.0)]

    def test_batch_matches_scalar_bits_with_scalar_residuals(self, monkeypatch):
        # The ITP points depend on residual values, so a batch fed exactly
        # the scalar residual's bits must return exactly the scalar roots.
        def scalar_kernel(K, pi, lam):
            return np.array([_fixed_point(k, p)(x) for k, p, x
                             in zip(K.tolist(), pi.tolist(), lam.tolist())])

        monkeypatch.setattr(macgain.verify, "_fixed_point_many", scalar_kernel)
        K, P = draw_samples(SampleSpec(seed=42, n_samples=500))
        lam = _root_many(K, K * P)
        want = [solve_lambda_star(int(k), float(p)).lambda_star for k, p in zip(K, P)]
        assert lam.tolist() == want

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
        # Nine ITP steps settle K=100 at pi=100 but not K=2 at pi=1000, in
        # the batch as in the scalar solver, which raises for it.
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 9)
        solve_lambda_star(100, 1.0)
        with pytest.raises(ConvergenceError, match="after 9 iterations"):
            solve_lambda_star(2, 500.0)
        with pytest.raises(ConvergenceError,
                           match="after 9 iterations for K=2, P=500.0"):
            _root_many(np.array([100, 2, 100]), np.array([100.0, 1000.0, 100.0]))

    def test_first_failure_in_input_order_wins(self, monkeypatch):
        # Five steps settle neither element; each raises in the scalar solver.
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 5)
        K, pi = np.array([2, 10]), np.array([1000.0, 1000.0])
        for order, first in (([0, 1], "K=2, P="), ([1, 0], "K=10, P=")):
            with pytest.raises(ConvergenceError, match=first):
                _root_many(K[order], pi[order])

    def test_overflowing_massive_slack_raises(self, monkeypatch):
        # The batch's kernel has no log split: where pi*lam overflows, at a
        # root or on the doubling past it (2e305), its slack is NaN and the
        # element goes to the scalar solver.  That solves it, or raises its
        # own error naming it.
        top = np.array([1e300, db_to_linear(3070.0), db_to_linear(3080.0), 2e305])
        handed = []

        def scalar(config):
            handed.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(macgain.verify, "eval_point", scalar)
        lam = _root_many(np.full(top.size, math.inf), top)
        assert handed == top[1:].tolist()
        assert lam.tolist() == [solve_lambda_massive(pi).lambda_star for pi in top]
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 5)
        with pytest.raises(ConvergenceError, match=re.escape(f"pi={float(top[1])!r}")):
            _root_many(np.full(3, math.inf), np.array([top[1], 1e300, 5.38]))

    def test_massive_doubling_counts_against_max_iter(self, monkeypatch):
        # lam(1000) is above 8, so three doublings cannot bracket it.
        monkeypatch.setattr(macgain.solvers, "MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            _root_many(np.full(2, math.inf), np.array([0.1, 1000.0]))

    @pytest.mark.parametrize("bad", [0.0, -0.5, -2.0, math.nan, math.inf])
    def test_invalid_power_raises_scalar_message(self, bad):
        # The batch has no power check of its own: the element reaches the
        # scalar solver's config validation.
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
