"""Solver tests: bisection kernel, finite and massive roots, the parametric
cross-check, curve sweeps, and peak search."""

from __future__ import annotations

import dataclasses
import math

import pytest

import macgain.solvers as solvers_module
from conftest import brute_peak_k2, raw_residual, sign_scan_root
from macgain.core import ChannelConfig, db_residual, db_to_linear, f_of
from macgain.solvers import (
    BracketError,
    ConvergenceError,
    LAMBDA_TOL,
    MAX_ITER,
    NoPeakError,
    PEAK_TOL_DB,
    SCAN_STEP_DB,
    _bisect,
    eval_point,
    find_peak,
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)

# Root of the three-user balance equation at P = 10, solved before the build
# by an independent scan-and-refine pass over the raw residual.
LAMBDA_K3_P10 = 2.305501180940743

# Massive-limit anchors from an independent damped fixed-point iteration.
LAMBDA_MASSIVE_1000 = 9.119252679077707
F_MASSIVE_1000 = 1.3198113234564064
LAMBDA_MASSIVE_01 = 1.0507902329815946
F_MASSIVE_01 = 1.048333419523501
LAMBDA_MASSIVE_538 = 3.0240440659757075
F_MASSIVE_538 = 1.5373314852951239

# Hundred-user anchor at unit per-user power, same scan-and-refine source.
LAMBDA_K100_P1 = 6.245751003216981
F_K100_P1 = 1.3951252981730995


class TestBisectKernel:
    def test_simple_root(self):
        x, fx, iters = _bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7, 1e-12, 200)
        assert x == pytest.approx(0.3, abs=1e-12)
        assert abs(fx) < 1e-11
        assert 0 < iters <= 60

    def test_exact_zero_short_circuit(self):
        x, fx, iters = _bisect(lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5, 1e-12, 200)
        assert x == 0.5
        assert fx == 0.0
        assert iters == 1

    def test_iteration_cap(self):
        # Seven steps leave a bracket far wider than 1e-30 that still has
        # a midpoint: nothing is certified.
        with pytest.raises(ConvergenceError, match="after 7 iterations"):
            _bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7, 1e-30, 7)

    def test_float_exhaustion_stops(self):
        # Interval of two adjacent floats has no representable midpoint.
        lo = 1.0
        hi = math.nextafter(1.0, 2.0)
        x, fx, iters = _bisect(lambda x: x - 2.0, lo, hi, lo - 2.0, hi - 2.0, 0.0, 200)
        assert iters == 0
        assert x in (lo, hi)

    def test_nan_midpoint_raises(self):
        # A NaN has no sign; it must not pass for an exact zero.
        with pytest.raises(ConvergenceError, match="NaN"):
            _bisect(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-12, 200)


class TestSolverSettings:
    def test_defaults(self):
        # The fixed tolerances every solve, sweep and peak search uses.
        assert LAMBDA_TOL == 1e-12
        assert MAX_ITER == 200
        assert SCAN_STEP_DB == 0.1
        assert PEAK_TOL_DB == 1e-4


class TestFiniteSolver:
    def test_three_user_anchor(self):
        sol = solve_lambda_star(3, 10.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_K3_P10, abs=1e-8)

    def test_anchor_agrees_with_fresh_grid_scan(self):
        # Re-derive the root here with a dense sign scan so the frozen
        # constant is not the only witness.
        scanned = sign_scan_root(3, 10.0, 10**7, 1e-9)
        assert scanned == pytest.approx(LAMBDA_K3_P10, abs=2e-9)

    def test_two_user_unit_power_against_scan(self):
        sol = solve_lambda_star(2, 1.0)
        scanned = sign_scan_root(2, 1.0, 10**6, 1e-9)
        assert sol.lambda_star == pytest.approx(scanned, abs=2e-9)
        assert 1.0 < sol.lambda_star < 2.0

    @pytest.mark.parametrize("K, P", [(2, 1.0), (3, 10.0), (7, 0.04), (100, 1.0)])
    def test_solution_fields_consistent(self, K, P):
        sol = solve_lambda_star(K, P)
        pi = sol.config.total_power
        assert 1.0 <= sol.lambda_star <= K
        assert abs(raw_residual(sol.lambda_star, K, P)) <= 1e-10
        assert sol.residual == db_residual(sol.lambda_star, K, P)
        assert sol.capacity_nofb == math.log1p(pi)
        assert sol.capacity_fb == math.log1p(pi * sol.lambda_star)
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb
        assert sol.gain_F > 1.0
        assert sol.iterations > 0
        assert not sol.degenerate

    def test_hundred_user_anchor(self):
        sol = solve_lambda_star(100, 1.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_K100_P1, abs=1e-9)
        assert sol.gain_F == pytest.approx(F_K100_P1, abs=1e-9)

    def test_tiny_power_stays_exact(self):
        sol = solve_lambda_star(2, 1e-9)
        assert not sol.degenerate
        assert 1.0 < sol.lambda_star < 1.0 + 1e-6

    def test_vanishing_power_degenerates(self):
        # At -200 dB the residual is exactly 0 at lam = 1 and cannot
        # separate it from the root.
        sol = solve_lambda_star(2, 1e-20)
        assert sol.degenerate
        assert sol.lambda_star == 1.0
        assert sol.iterations == 0
        assert sol.capacity_fb == sol.capacity_nofb == math.log1p(2e-20)
        assert sol.gain_F == 1.0

    def test_determinism(self):
        assert solve_lambda_star(3, 10.0) == solve_lambda_star(3, 10.0)

    def test_negated_residual_aborts_loudly(self, monkeypatch):
        # A sign-flipped residual must break the bracket guarantee and be
        # reported, never silently absorbed.
        real = math.log1p
        monkeypatch.setattr(solvers_module.math, "log1p", lambda x: -real(x))
        with pytest.raises(BracketError):
            solve_lambda_star(3, 10.0)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(solvers_module, "MAX_ITER", 5)
        with pytest.raises(ConvergenceError, match="after 5 iterations for K=3, P=10.0"):
            solve_lambda_star(3, 10.0)


class TestMassiveSolver:
    def test_large_power_anchor(self):
        sol = solve_lambda_massive(1000.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_1000, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_1000, abs=1e-12)
        assert sol.lambda_star == pytest.approx(9.12, abs=5e-3)
        assert sol.gain_F == pytest.approx(1.320, abs=1e-3)

    def test_small_power_anchor(self):
        sol = solve_lambda_massive(0.1)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_01, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_01, abs=1e-12)

    def test_near_peak_anchor(self):
        sol = solve_lambda_massive(5.38)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_538, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_538, abs=1e-12)

    def test_solution_fields_consistent(self):
        sol = solve_lambda_massive(7.0)
        assert sol.config.is_massive
        assert sol.lambda_star > 1.0
        assert sol.residual == sol.lambda_star - f_of(7.0, sol.lambda_star)
        assert abs(sol.residual) <= 1e-10
        assert sol.capacity_nofb == math.log1p(7.0)
        assert sol.capacity_fb == math.log1p(7.0 * sol.lambda_star)
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb
        assert sol.iterations > 0
        assert not sol.degenerate

    def test_expansion_cap_raises(self, monkeypatch):
        # lam(1000) is above 8, so three doublings cannot bracket it.
        monkeypatch.setattr(solvers_module, "MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            solve_lambda_massive(1000.0)

    def test_determinism(self):
        assert solve_lambda_massive(5.38) == solve_lambda_massive(5.38)

    def test_top_of_float_range(self):
        assert solve_lambda_massive(1e300).lambda_star == pytest.approx(
            697.322776, abs=5e-7
        )

    @pytest.mark.parametrize("pi_db", [3070.0, 3079.0, 3080.0])
    def test_overflowing_slack_raises(self, pi_db):
        # pi*lam overflows inside f_of, so the slack turns NaN before it
        # turns positive; that is no root.
        with pytest.raises(ConvergenceError, match="NaN"):
            solve_lambda_massive(db_to_linear(pi_db))


class TestParametricCrossCheck:
    def test_two_routes_agree(self):
        # The fixed-point solve and the closed-form parametrization must
        # land on the same curve to solver precision.
        for k in range(100):
            pi = 10.0 ** (-3.0 + 6.0 * k / 99.0)
            lam_fixed = solve_lambda_massive(pi).lambda_star
            t, lam_param = invert_massive_parametric(pi)
            assert abs(lam_fixed - lam_param) <= 1e-11
            assert abs(lam_fixed - lam_param) <= 1e-9 * lam_param
            assert t >= pi

    def test_inversion_hits_requested_power(self):
        from macgain.core import massive_parametric

        for pi in (1e-3, 0.1, 5.38, 1000.0):
            t, lam = invert_massive_parametric(pi)
            pi_back, lam_back = massive_parametric(t)
            assert pi_back == pytest.approx(pi, rel=1e-9, abs=1e-12)
            assert lam_back == lam

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            invert_massive_parametric(0.0)

    def test_top_of_float_range(self):
        t, lam = invert_massive_parametric(1e300)
        assert lam == pytest.approx(697.322776, abs=5e-7)
        assert lam == pytest.approx(solve_lambda_massive(1e300).lambda_star, rel=1e-9)

    @pytest.mark.parametrize("pi_db", [3055.0, 3080.0])
    def test_overflowing_overshoot_raises(self, pi_db):
        # t = pi*s overflows before the overshoot turns positive, so the
        # parametrization returns NaN; that is no root.
        with pytest.raises(ConvergenceError, match="NaN"):
            invert_massive_parametric(db_to_linear(pi_db))


class TestEvalPoint:
    def test_dispatches_finite(self):
        sol = eval_point(ChannelConfig.finite(100, per_user_power=1.0))
        assert sol.lambda_star == pytest.approx(LAMBDA_K100_P1, abs=1e-9)

    def test_dispatches_massive(self):
        direct = solve_lambda_massive(1000.0)
        via_config = eval_point(ChannelConfig.massive(1000.0))
        assert via_config == direct

    def test_total_power_entry(self):
        sol = eval_point(ChannelConfig.finite(2, total_power=2e-9))
        assert not sol.degenerate
        assert sol.gain_F == pytest.approx(1.0, abs=1e-6)


class TestSweepCurve:
    def test_default_grid_shape(self):
        points = sweep_curve(None, -10.0, 30.0, 0.1)
        assert len(points) == 401
        assert points[0].pi_db == -10.0
        assert points[-1].pi_db == 30.0
        assert all(a.pi_db < b.pi_db for a, b in zip(points, points[1:]))

    def test_coarse_grid_shape(self):
        points = sweep_curve(3, -10.0, 30.0, 1.0)
        assert len(points) == 41
        assert all(p.users == 3 for p in points)

    def test_point_fields(self):
        points = sweep_curve(None, 30.0, 30.0, 0.1)
        assert len(points) == 1
        p = points[0]
        assert p.users is None
        assert p.pi == pytest.approx(1000.0, rel=1e-12)
        assert p.lam == pytest.approx(LAMBDA_MASSIVE_1000, abs=5e-12)
        assert p.lam_db == pytest.approx(10.0 * math.log10(p.lam), rel=1e-12)
        assert p.F == pytest.approx(F_MASSIVE_1000, abs=1e-12)

    def test_ragged_end_is_clamped(self):
        points = sweep_curve(None, -10.0, 29.95, 0.1)
        assert len(points) == 401
        assert points[-1].pi_db == 29.95

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_curve(None, 1.0, 0.0, 0.1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            sweep_curve(None, 0.0, 1.0, 0.0)

    def test_massive_gain_strictly_increases(self):
        points = sweep_curve(None, -10.0, 30.0, 1.0)
        lams = [p.lam for p in points]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_more_users_dominate(self):
        grids = {
            users: sweep_curve(users, -10.0, 30.0, 2.0)
            for users in (2, 3, None)
        }
        for two, three, massive in zip(grids[2], grids[3], grids[None]):
            assert two.F < three.F < massive.F

    def test_determinism(self):
        assert sweep_curve(2, -5.0, 5.0, 0.5) == sweep_curve(2, -5.0, 5.0, 0.5)


class TestFindPeak:
    def test_massive_peak(self):
        peak = find_peak(None)
        assert peak.users is None
        assert peak.pi_star == pytest.approx(5.38, abs=0.05)
        assert peak.F_star == pytest.approx(F_MASSIVE_538, abs=1e-4)
        assert peak.F_star >= F_MASSIVE_538 - 1e-12
        assert peak.lambda_at_peak == pytest.approx(LAMBDA_MASSIVE_538, abs=2e-2)

    def test_two_user_peak_against_brute_force(self):
        oracle_db, oracle_F = brute_peak_k2()
        # The independent grid maximum pins both coordinates.
        assert oracle_db == pytest.approx(7.104, abs=1.5e-3)
        assert oracle_F == pytest.approx(1.1903994, abs=5e-7)
        peak = find_peak(2)
        assert peak.pi_star_db == pytest.approx(oracle_db, abs=2e-3)
        assert peak.F_star == pytest.approx(oracle_F, abs=1e-7)

    def test_ten_user_peak(self):
        peak = find_peak(10)
        assert peak.pi_star_db == pytest.approx(7.2375, abs=2e-3)
        assert peak.F_star == pytest.approx(1.4458875, abs=1e-6)

    def test_result_invariants(self):
        peak = find_peak(3)
        assert peak.pi_star == db_to_linear(peak.pi_star_db)
        left, mid, right = peak.bracket_evidence
        assert left[0] < mid[0] < right[0]
        assert mid[1] >= left[1]
        assert mid[1] >= right[1]
        assert peak.F_star >= mid[1]
        assert 1.0 < peak.F_star < 2.0

    def test_peak_on_edge_raises(self):
        with pytest.raises(NoPeakError):
            find_peak(None, -10.0, 0.0)
        with pytest.raises(NoPeakError):
            find_peak(None, 20.0, 30.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            find_peak(None, 5.0, 5.0)

    def test_determinism(self):
        assert find_peak(2) == find_peak(2)

    def test_solves_its_peak_once(self, monkeypatch):
        solved = []

        def counted(config):
            solved.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(solvers_module, "eval_point", counted)
        peak = find_peak(None)
        assert solved.count(peak.pi_star) == 1

    def test_scan_maximum_is_the_floor(self, monkeypatch):
        # Every solve after the 401-point scan reports a lower F, so the
        # refined point loses to the scan maximum, which is returned as
        # scanned and not solved again.
        top = max(sweep_curve(None, -10.0, 30.0, SCAN_STEP_DB), key=lambda pt: pt.F)
        solved = []

        def damped(config):
            solved.append(config.total_power)
            sol = eval_point(config)
            if len(solved) > 401:
                sol = dataclasses.replace(sol, gain_F=sol.gain_F - 0.01)
            return sol

        monkeypatch.setattr(solvers_module, "eval_point", damped)
        peak = find_peak(None)
        assert (peak.pi_star, peak.pi_star_db, peak.F_star, peak.lambda_at_peak) == (
            top.pi, top.pi_db, top.F, top.lam
        )
        assert peak.bracket_evidence[1] == (top.pi_db, top.F)
        assert solved.count(peak.pi_star) == 1

    def test_result_is_frozen(self):
        peak = find_peak(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            peak.F_star = 2.0
