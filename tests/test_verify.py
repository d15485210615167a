"""Tests of the executable verification suite: sampling, slack tracking,
the individual checks, and the sabotage negative control."""

from __future__ import annotations

import math

import pytest

from macgain.solvers import solve_lambda_massive, solve_lambda_star
from macgain.verify import (
    BoundReport,
    DEFAULT_USERS,
    DERIVATIVE_GRID,
    IMPROVED_GAIN_CAP,
    NUMERIC_SLOP,
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
        spec = SampleSpec(seed=0, n_samples=5)
        assert spec.K_range == (2, 10_000)
        assert spec.P_range == (1e-3, 1e3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"K_range": (1, 10)},
            {"K_range": (10, 2)},
            {"P_range": (0.0, 1.0)},
            {"P_range": (2.0, 1.0)},
        ],
    )
    def test_rejects_bad_plans(self, kwargs):
        plan = {"seed": 0, "n_samples": 4, **kwargs}
        with pytest.raises(ValueError):
            SampleSpec(**plan)


class TestDrawSamples:
    def test_deterministic(self):
        spec = SampleSpec(seed=11, n_samples=50)
        assert draw_samples(spec) == draw_samples(spec)

    def test_seed_changes_draw(self):
        a = draw_samples(SampleSpec(seed=11, n_samples=50))
        b = draw_samples(SampleSpec(seed=12, n_samples=50))
        assert a != b

    def test_ranges_and_spread(self):
        pairs = draw_samples(SampleSpec(seed=0, n_samples=1000))
        assert len(pairs) == 1000
        ks = [k for k, _ in pairs]
        ps = [p for _, p in pairs]
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
        names = [name for name, _ in point_bound_slacks(3, 1.0, 3.0)]
        assert "bracket_cap" not in names

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


class TestTailBounds:
    def test_clean(self):
        report = check_tail_bounds()
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
        report = check_derivative()
        assert report.check_name == "derivative_consistency"
        assert report.passed
        assert report.samples == 2 * len(DERIVATIVE_GRID)
        assert report.worst_slack > 0.0

    def test_single_power(self):
        report = check_derivative(pi_grid=(1000.0,))
        assert report.passed
        assert report.samples == 2


class TestCurveShape:
    def test_clean_defaults(self):
        report = check_monotone_unimodal()
        assert report.check_name == "curve_shape"
        assert report.passed
        # 4 shape slacks per curve, one domination slack per adjacent pair,
        # two massive limit anchors.
        expected = 4 * len(DEFAULT_USERS) + (len(DEFAULT_USERS) - 1) + 2
        assert report.samples == expected

    def test_single_finite_curve(self):
        report = check_monotone_unimodal(users_list=(2,))
        assert report.passed
        assert report.samples == 4


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
        assert by_name["derivative_consistency"].samples == 14
        assert by_name["curve_shape"].samples == 26
        assert by_name["global_gain_bounds"].samples == 3 * 10 + 2

    def test_deterministic(self, reports):
        assert run_suite(SampleSpec(seed=7, n_samples=10)) == reports

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
