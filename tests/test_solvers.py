"""Solver tests: bisection kernel, finite and massive roots, the parametric
cross-check, curve sweeps, and peak search."""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

import pytest

import macgain.solvers as solvers_module
from conftest import brute_peak_k2, raw_residual, sign_scan_root
from test_oracle import GRID_POWER_DB, GRID_USERS, MASSIVE_POWER_DB
from macgain.core import ChannelConfig, _fixed_point, db_to_linear, f_of
from macgain.solvers import (
    BracketError,
    ConvergenceError,
    LAMBDA_TOL,
    MAX_GRID_POINTS,
    MAX_ITER,
    NoPeakError,
    _bisect,
    db_grid,
    eval_point,
    find_peak,
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)
from macgain.verify import BoundReport, SampleSpec, draw_samples

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


def _bisection_steps(lo: float, hi: float, tol: float) -> int:
    """ceil(log2((hi - lo) / tol)) in exact arithmetic: bisection's step count."""
    return (math.ceil(Fraction(hi - lo) / Fraction(tol)) - 1).bit_length()


@pytest.fixture
def kernel_calls(monkeypatch):
    """(lo, hi, tol, steps) of every _bisect call that a solve makes."""
    calls = []
    kernel = solvers_module._bisect

    def logged(fn, lo, hi, f_lo, f_hi, tol, max_iter):
        result = kernel(fn, lo, hi, f_lo, f_hi, tol, max_iter)
        calls.append((lo, hi, tol, result[2]))
        return result

    monkeypatch.setattr(solvers_module, "_bisect", logged)
    return calls


class TestITPSteps:
    """ITP keeps bisection's worst case, and beats it on average."""

    @pytest.mark.parametrize(
        "solve_grid",
        [pytest.param(lambda K=K: [solve_lambda_star(K, db_to_linear(power_db))
                                   for power_db in GRID_POWER_DB], id=f"K={K}")
         for K in GRID_USERS]
        + [pytest.param(lambda: [solve_lambda_massive(db_to_linear(pi_db))
                                 for pi_db in MASSIVE_POWER_DB], id="massive"),
           pytest.param(lambda: [invert_massive_parametric(db_to_linear(pi_db))
                                 for pi_db in MASSIVE_POWER_DB], id="inversion")],
    )
    def test_at_most_one_step_beyond_bisection(self, kernel_calls, solve_grid):
        solve_grid()
        assert kernel_calls
        over = [(lo, hi, steps) for lo, hi, tol, steps in kernel_calls
                if steps > _bisection_steps(lo, hi, tol) + 1]
        assert over == []

    def test_mean_steps_on_the_sample_box(self):
        # The verify sample box, where bisection takes 44.5 steps per root.
        K, P = draw_samples(SampleSpec(seed=42, n_samples=2000))
        steps = [solve_lambda_star(int(k), float(p)).iterations for k, p in zip(K, P)]
        assert statistics.mean(steps) <= 12

    def test_mean_steps_on_the_oracle_grid(self):
        # Bisection takes 47.0 steps per root here.  The fixed-point
        # residual has no pole at lam = K, so interpolation pays off at
        # high power too: 11.9 steps on average, at most 20.
        steps = [solve_lambda_star(K, db_to_linear(power_db)).iterations
                 for K in GRID_USERS for power_db in GRID_POWER_DB]
        assert statistics.mean(steps) <= 13


class TestSolverSettings:
    def test_defaults(self):
        # The fixed tolerances every solve and peak search uses.
        assert LAMBDA_TOL == 1e-12
        assert MAX_ITER == 200


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
        assert sol.residual == _fixed_point(float(K), pi)(sol.lambda_star)
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
        # reported, never silently absorbed: it is > 0 at lam = 1 and falls,
        # which neither the degenerate pin nor the cap root accepts.
        def negated(K, pi):
            residual = _fixed_point(K, pi)
            return lambda lam: -residual(lam)

        monkeypatch.setattr(solvers_module, "_fixed_point", negated)
        with pytest.raises(BracketError):
            solve_lambda_star(3, 10.0)
        with pytest.raises(BracketError):
            solve_lambda_massive(5.38)

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
    def test_overflowing_slack_raises(self, unsplit_residual, pi_db):
        # Without the log split, pi*lam overflows in the slack, which turns
        # NaN before it turns positive; that is no root.
        with pytest.raises(ConvergenceError, match="NaN"):
            solve_lambda_massive(db_to_linear(pi_db))


class TestTopOfTheFloatRange:
    """Solves where pi*lam overflows, at the root or on the doubling past it.

    The residual and capacity_fb take ln(pi) + ln(lam) there.
    """

    @pytest.mark.parametrize("users, power_db", [
        (2, 3077.5), (10, 3065.0), (1000, 3027.5), (None, 3052.5),
        (2, 3079.0), (None, 3082.0),
    ])
    def test_solves_with_finite_capacities(self, users, power_db):
        power = db_to_linear(power_db)
        config = (ChannelConfig.massive(power) if users is None
                  else ChannelConfig.finite(users, per_user_power=power))
        sol = eval_point(config)
        assert 1.0 < sol.lambda_star <= (users or math.inf)
        assert math.isfinite(sol.capacity_fb) and math.isfinite(sol.gain_F)
        assert sol.capacity_fb == pytest.approx(
            math.log(config.total_power) + math.log(sol.lambda_star), rel=1e-15)
        assert 1.0 < sol.gain_F < 1.01

    def test_peak_search_reaches_the_top(self):
        # The slope takes t*(lam/K), which stays finite where t*lam overflows.
        wide = find_peak(2, 0.0, 3079.0)
        assert wide.pi_star_db == pytest.approx(find_peak(2).pi_star_db, abs=1e-9)

    def test_cap_root(self):
        # K - lam is about 1e-25 at the root, far below the float spacing at
        # 2: the residual is 0 at the cap, which is taken as the root.
        sol = solve_lambda_star(2, db_to_linear(500.0))
        assert sol.lambda_star == 2.0
        assert sol.residual <= 0.0 and not sol.degenerate
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb


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
        # Both massive routes validate the power the way ChannelConfig does.
        for solve in (solve_lambda_massive, invert_massive_parametric):
            for pi in (0.0, -1.0, math.nan, math.inf):
                message = f"total power must be a positive finite power, got {pi!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    solve(pi)

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

    @pytest.mark.parametrize("from_db, to_db", [(math.nan, 30.0), (0.0, math.nan)])
    def test_nan_end_is_an_empty_range(self, from_db, to_db):
        # NaN compares false both ways, so it must not pass as an ordered range.
        with pytest.raises(ValueError, match="empty sweep range"):
            sweep_curve(None, from_db, to_db, 1.0)

    @pytest.mark.parametrize("to_db", [19999.0, 19998.5])
    def test_grid_of_exactly_max_points_accepted(self, to_db):
        # Even, and ragged with the clamped end point appended.
        assert len(db_grid(0.0, to_db, 1.0)) == MAX_GRID_POINTS

    @pytest.mark.parametrize("to_db, step_db", [(19999.5, 1.0), (1999.95, 0.1)])
    def test_ragged_grid_one_past_max_rejected(self, to_db, step_db):
        # MAX_GRID_POINTS whole-step points plus the appended end point.
        with pytest.raises(ValueError, match="grid points"):
            db_grid(0.0, to_db, step_db)

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
        # The final bracket: F rises at its left end and falls at its right.
        # The peak is the evaluated point with the smallest |g|; here |g| ties
        # at the two ends, one ulp of 1 from 0, and the later one, the right
        # end, wins.
        left, right = peak.bracket_evidence
        assert left[0] <= peak.pi_star_db <= right[0]
        assert right[0] - left[0] <= LAMBDA_TOL
        assert left[1] < 0.0 < right[1]
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
        # One solve per slope evaluation, the peak's reused: the 0.1 dB
        # scan and golden section this replaced took 420.
        solved = []

        def counted(config):
            solved.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(solvers_module, "eval_point", counted)
        for users in (None, 10):
            solved.clear()
            peak = find_peak(users)
            assert solved.count(peak.pi_star) == 1
            assert len(solved) <= 15

    @pytest.mark.parametrize("users, F_floor", [
        (2, 1.190399433042081),
        (3, 1.2805127560396978),
        (10, 1.445887514235721),
        (100, 1.527463660495402),
        (None, 1.537332661580568),
    ])
    def test_no_lower_than_the_scan_and_golden_section(self, users, F_floor):
        # F* as a 0.1 dB scan refined by golden section to 1e-4 dB finds it;
        # the slope root must not do worse.
        assert find_peak(users).F_star >= F_floor

    @pytest.mark.parametrize("users", [2, 10, 10**6, None])
    def test_wide_range_finds_the_same_peak(self, users):
        # Below about -115 dB the solve cannot tell lam from 1 and F is flat
        # at 1; that region must count as below the peak, or the search
        # settles there.
        wide, default = find_peak(users, -300.0, 3000.0), find_peak(users)
        assert wide.pi_star_db == pytest.approx(default.pi_star_db, abs=1e-9)
        assert wide.F_star == pytest.approx(default.F_star, rel=1e-14)

    def test_result_is_frozen(self):
        # Every record is a named tuple: no field can be reassigned and no
        # attribute added.
        records = [
            find_peak(2),
            sweep_curve(None, 0.0, 0.0, 0.1)[0],
            solve_lambda_star(2, 1.0),
            ChannelConfig.massive(1.0),
            SampleSpec(seed=0, n_samples=1),
            BoundReport("demo", 1, 0, 0.0, ""),
        ]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 2.0)
            with pytest.raises(AttributeError):
                record.extra = 2.0
