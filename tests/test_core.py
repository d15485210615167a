"""Scalar formula tests: conversions, capacities, residual forms, the
fixed-point map, and the closed-form curve parametrization."""

from __future__ import annotations

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import raw_residual
from macgain.core import (
    ChannelConfig,
    GainSolution,
    _fixed_point,
    _fixed_point_many,
    db_to_linear,
    db_residual,
    dlambda_dpi,
    f_of,
    linear_to_db,
    log1p_over_x,
    massive_parametric,
)
from macgain.solvers import solve_lambda_massive, solve_lambda_star


class TestDbConvert:
    def test_unit_power_is_zero_db(self):
        assert linear_to_db(1.0) == 0.0

    def test_three_decades(self):
        assert db_to_linear(30.0) == 1000.0

    def test_peak_power_in_db(self):
        assert linear_to_db(5.38) == pytest.approx(7.31, abs=5e-3)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, x):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-3.0)


class TestLog1pOverX:
    def test_value_at_zero(self):
        assert log1p_over_x(0.0) == 1.0

    def test_series_regime(self):
        x = 1e-10
        assert log1p_over_x(x) == pytest.approx(1.0 - x / 2.0, rel=1e-15)

    def test_series_matches_direct_quotient(self):
        x = 0.99e-8
        assert log1p_over_x(x) == pytest.approx(math.log1p(x) / x, rel=1e-12)

    def test_plain_regime(self):
        assert log1p_over_x(math.e - 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)

    def test_domain(self):
        for x in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                log1p_over_x(x)

    def test_limit_at_infinity(self):
        assert log1p_over_x(math.inf) == 0.0

    @given(st.floats(min_value=-0.999999, max_value=1e6))
    def test_log_sandwich(self, x):
        # x/(1+x) <= ln(1+x) <= x, strict away from zero.
        log_term = math.log1p(x)
        assert log_term <= x
        assert log_term >= x / (1.0 + x)
        if abs(x) > 1e-6:
            assert log_term < x
            assert log_term > x / (1.0 + x)


class TestChannelConfig:
    def test_finite_fills_total(self):
        config = ChannelConfig.finite(4, per_user_power=0.5)
        assert config.total_power == 2.0
        assert not config.is_massive

    def test_finite_fills_per_user(self):
        config = ChannelConfig.finite(4, total_power=2.0)
        assert config.per_user_power == 0.5

    def test_both_powers_rejected(self):
        # One power derives the other; a pair is refused even when it agrees.
        with pytest.raises(ValueError, match="exactly one"):
            ChannelConfig.finite(2, per_user_power=1.0, total_power=2.0)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig.finite(2, per_user_power=1.0, total_power=3.0)

    def test_finite_requires_a_power(self):
        with pytest.raises(ValueError, match="exactly one"):
            ChannelConfig(2, None, None)

    def test_massive_requires_total(self):
        with pytest.raises(ValueError):
            ChannelConfig(None, 1.0, None)
        with pytest.raises(ValueError):
            ChannelConfig(None, None, None)
        assert ChannelConfig.massive(2.0).is_massive

    def test_rejects_small_user_count(self):
        with pytest.raises(ValueError):
            ChannelConfig.finite(1, per_user_power=1.0)

    def test_rejects_user_count_beyond_float_range(self):
        # K*P would raise OverflowError inside the solver instead.
        with pytest.raises(ValueError, match="beyond float range"):
            ChannelConfig.finite(10**400, per_user_power=1.0)
        assert ChannelConfig.finite(10**300, per_user_power=1.0).users == 10**300

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            ChannelConfig.finite(2, per_user_power=-1.0)
        with pytest.raises(ValueError):
            ChannelConfig.massive(0.0)

    def test_rejects_underflowing_per_user_power(self):
        # 10**-323.3 is subnormal; a third of it rounds to 0.
        message = "per-user power must be a positive finite power, got 0.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelConfig.finite(3, total_power=db_to_linear(-3233.0))

    def test_rejects_overflowing_total_power(self):
        message = "total power must be a positive finite power, got inf"
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelConfig.finite(10**299, per_user_power=1e10)
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelConfig.finite(2, per_user_power=1e308)


class TestRecords:
    def test_gain_solution_leads_with_config_and_lambda(self):
        # perfbench/workloads.py::_lambda_of reads lambda as result[1] from
        # any tuple, so point_stream's ok_ratio depends on this order.
        assert GainSolution._fields[:2] == ("config", "lambda_star")

    def test_config_survives_pickle_and_copy(self):
        # A finite config stores both powers, a pair its constructor
        # refuses; restoring one must not validate it again.
        config = ChannelConfig.finite(3, total_power=0.1)
        sol = solve_lambda_star(3, 10.0)
        for record in (config, sol):
            for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                          copy.deepcopy(record)):
                assert type(clone) is type(record)
                assert clone == record

    def test_make_and_replace_validate(self):
        config = ChannelConfig.finite(4, per_user_power=0.5)
        assert config._replace(per_user_power=None, total_power=4.0).per_user_power == 1.0
        with pytest.raises(ValueError, match="exactly one"):
            config._replace(per_user_power=1.0)
        with pytest.raises(ValueError, match="at least 2 users"):
            ChannelConfig._make((1, 1.0, None))


class TestCapacities:
    """The capacities a solve reports, ln(1+pi) and ln(1+pi*lam) in nats."""

    def test_zero_power(self):
        # Zero power has no solve; the smallest positive one pins lam = 1,
        # where both capacities are pi itself.
        with pytest.raises(ValueError):
            solve_lambda_massive(0.0)
        sol = solve_lambda_massive(5e-324)
        assert sol.degenerate
        assert sol.capacity_nofb == sol.capacity_fb == 5e-324

    def test_one_nat(self):
        sol = solve_lambda_massive(math.e - 1.0)
        assert sol.capacity_nofb == pytest.approx(1.0, rel=1e-14)

    def test_direct_value(self):
        sol = solve_lambda_star(10, 100.0)
        assert sol.capacity_nofb == pytest.approx(math.log(1001.0), rel=1e-15)

    def test_fb_collapses_at_unit_gain(self):
        for sol in (solve_lambda_star(2, 1e-20), solve_lambda_star(10**15, 1e-32),
                    solve_lambda_massive(1e-20)):
            assert sol.degenerate and sol.lambda_star == 1.0
            assert sol.capacity_fb == sol.capacity_nofb

    def test_fb_anchor(self):
        sol = solve_lambda_massive(1000.0)
        assert sol.capacity_fb == pytest.approx(math.log(1.0 + 1000.0 * 9.1193),
                                                abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_lambda_massive(-0.5)
        with pytest.raises(ValueError):
            solve_lambda_star(2, -0.5)


class TestGainFactor:
    """The gain factor a solve reports, ln(1+pi*lam) / ln(1+pi)."""

    def test_unit_gain_is_one(self):
        for sol in (solve_lambda_star(100, 1e-20), solve_lambda_massive(1e-20)):
            assert sol.degenerate
            assert sol.gain_F == 1.0

    def test_large_power_anchor(self):
        assert solve_lambda_massive(1000.0).gain_F == pytest.approx(1.320, abs=1e-3)

    def test_hundred_user_anchor(self):
        assert solve_lambda_star(100, 1.0).gain_F == pytest.approx(1.4, abs=0.05)

    def test_domain_errors(self):
        # A total power whose per-user share underflows has no gain factor.
        with pytest.raises(ValueError, match="per-user power"):
            ChannelConfig.finite(3, total_power=5e-324)
        with pytest.raises(ValueError):
            solve_lambda_star(3, 0.0)


class TestDbResidual:
    # The per-user anchors below are scaled by K*(K-1) to the balanced form.
    def test_low_end_example(self):
        expected = 2.0 * (0.5 * math.log(3.0) - math.log(2.0))
        assert db_residual(1.0, 2, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_high_end_positive(self):
        K, P = 3, 0.7
        value = db_residual(float(K), K, P)
        assert value == pytest.approx(K * (K - 1.0) * math.log1p(K * K * P) / K, rel=1e-14)
        assert value > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            db_residual(0.5, 2, 1.0)
        with pytest.raises(ValueError):
            db_residual(2.5, 2, 1.0)
        with pytest.raises(ValueError):
            db_residual(1.5, 1, 1.0)
        with pytest.raises(ValueError):
            db_residual(1.5, 2, 0.0)

    @given(
        st.integers(min_value=2, max_value=1000),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_boost_identity(self, K, P, frac):
        # The balanced form exists because 1 + P*lam^2/(1+(K-lam)*P*lam)
        # equals (1+K*P*lam)/(1+(K-lam)*P*lam) identically.
        lam = 1.0 + frac * (K - 1.0)
        lhs = 1.0 + P * lam * lam / (1.0 + (K - lam) * P * lam)
        rhs = (1.0 + K * P * lam) / (1.0 + (K - lam) * P * lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        st.integers(min_value=2, max_value=1000),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_forms_share_sign_and_scale(self, K, P, frac):
        lam = 1.0 + frac * (K - 1.0)
        raw = raw_residual(lam, K, P)
        balanced = db_residual(lam, K, P)
        assert (raw > 0.0) == (balanced > 0.0)
        assert (raw < 0.0) == (balanced < 0.0)
        # Identical zero set: the balanced form is exactly K*(K-1) times raw.
        scale = K * (K - 1.0)
        assert balanced == pytest.approx(scale * raw, rel=1e-9, abs=1e-12 * scale)


class TestFixedPointMap:
    def test_one_nat_point(self):
        t = math.e - 1.0
        assert f_of(1.0, t) == pytest.approx(math.e / (math.e - 1.0), rel=1e-14)

    def test_limit_toward_one(self):
        assert f_of(1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("pi", [1e-6, 0.01, 1.0, 100.0, 1e6])
    def test_above_one_at_unit_gain(self, pi):
        assert f_of(pi, 1.0) > 1.0

    def test_domain_errors(self):
        for pi, lam in ((0.0, 1.0), (1.0, 0.5), (math.nan, 2.0), (math.inf, 2.0),
                        (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                f_of(pi, lam)

    def test_overflowing_product_is_nan(self):
        # Finite arguments whose product overflows give NaN, the solver's
        # overflow signal, not an error.
        assert math.isnan(f_of(1e300, 1e10))

    @pytest.mark.parametrize("pi", [0.01, 0.1, 1.0, 10.0, 1000.0])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 5.0, 10.0])
    def test_slope_below_contraction_bound(self, pi, lam):
        # 0 < df/dlam < pi/(1+pi*lam) <= 1, probed by forward differences.
        h = 1e-6
        slope = (f_of(pi, lam + h) - f_of(pi, lam)) / h
        bound = pi / (1.0 + pi * lam)
        assert 0.0 < slope < bound + 1e-9
        assert bound <= 1.0


class TestFixedPointResidual:
    """core._fixed_point, the residual of every solve, and its numpy twin."""

    @pytest.mark.parametrize("pi", [1e-12, 1e-3, 5.38, 1e6, 1e300])
    def test_massive_limit_is_the_f_of_slack(self, pi):
        # phi = 1 exactly at K = inf, so the massive roots keep their bits.
        for lam in (1.0, 1.5, 3.0, 9.0, 700.0):
            assert _fixed_point(math.inf, pi)(lam) == lam - f_of(pi, lam)

    @given(
        st.integers(min_value=2, max_value=1000),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_sign_as_the_balance_residual(self, K, P, frac):
        # The fixed point lam = G_K(K*P*lam) is the balance equation's K-th
        # root solved for lam: both residuals change sign at the same root.
        lam = 1.0 + frac * (K - 1.0)
        balanced = db_residual(lam, K, P)
        if abs(balanced) > 1e-10 * K * (K - 1.0):
            assert (_fixed_point(float(K), K * P)(lam) > 0.0) == (balanced > 0.0)

    def test_no_pole_at_the_cap(self):
        # G_K stays below K for every t > 0, so the residual is > 0 at
        # lam = K, finite however large the power.  Where K - G_K is below
        # the float spacing at K it rounds to 0 or a few ulps below, and
        # the solver takes the cap as the root.
        for K in (2.0, 3.0, 10.0, 1e4):
            values = [_fixed_point(K, K * db_to_linear(db))(K) for db in range(-60, 3001, 60)]
            assert all(-4.0 * math.ulp(K) <= v < K for v in values)
            assert values[0] > 0.0

    @pytest.mark.parametrize("K", [2.0, 3.0, 10.0, 1e4, 1e12, 1e300, math.inf])
    def test_array_form_matches_scalar(self, K):
        # The same operations in the same order: bit for bit wherever
        # numpy's log1p and expm1 round like math's, a few ulps elsewhere.
        pi, frac = np.meshgrid(np.logspace(-7, 300, 61), np.linspace(0.0, 1.0, 11))
        lam = 1.0 + frac * (min(K, 1e3) - 1.0)
        pi, lam = pi.ravel(), lam.ravel()
        keep = np.isfinite(pi * lam)
        pi, lam = pi[keep], lam[keep]
        with np.errstate(all="ignore"):
            batch = _fixed_point_many(K, pi, lam)
        scalar = np.array([_fixed_point(K, p)(x) for p, x in zip(pi.tolist(), lam.tolist())])
        t = pi * lam
        z = (np.log1p(t) / K).tolist()
        same = (np.log1p(t) == [math.log1p(x) for x in t.tolist()]) & (
            np.expm1(np.negative(z)) == [math.expm1(-x) for x in z])
        assert same.mean() > 0.9
        assert np.array_equal(batch[same], scalar[same])
        assert np.allclose(batch, scalar, rtol=0.0, atol=1e-15 * lam.max())

    def test_array_form_leaves_overflow_to_the_scalar_solver(self):
        with np.errstate(all="ignore"):
            assert np.isnan(_fixed_point_many(np.array([2.0, math.inf]), 1e308, 2.0)).all()
        assert math.isfinite(_fixed_point(2.0, 1e308)(2.0))
        assert math.isfinite(_fixed_point(math.inf, 1e308)(2.0))


class TestMassiveParametric:
    def test_one_nat_point(self):
        t = math.e - 1.0
        pi, lam = massive_parametric(t)
        assert lam == pytest.approx(math.e / (math.e - 1.0), rel=1e-14)
        assert pi == pytest.approx((math.e - 1.0) ** 2 / math.e, rel=1e-14)

    def test_small_parameter_limit(self):
        pi, lam = massive_parametric(1e-10)
        assert lam == pytest.approx(1.0 + 0.5e-10, rel=1e-13)
        assert pi == pytest.approx(1e-10, rel=1e-9)

    def test_recovers_large_power_anchor(self):
        # lam(1000) computed by an independent fixed-point solve before the
        # build; t = pi*lam must map back to pi = 1000.
        lam_1000 = 9.119252679077707
        pi, lam = massive_parametric(1000.0 * lam_1000)
        assert pi == pytest.approx(1000.0, rel=1e-6)
        assert lam == pytest.approx(lam_1000, rel=1e-6)

    def test_power_strictly_increasing(self):
        ts = [10.0 ** (k / 4.0) for k in range(-24, 25)]
        pis = [massive_parametric(t)[0] for t in ts]
        assert all(a < b for a, b in zip(pis, pis[1:]))

    def test_lies_on_fixed_point_curve(self):
        for k in range(-24, 25):
            t = 10.0 ** (k / 4.0)
            pi, lam = massive_parametric(t)
            assert abs(lam - f_of(pi, lam)) <= 1e-12

    def test_domain(self):
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                massive_parametric(t)
        # t = inf is no error: (nan, nan) is the overflow signal that
        # invert_massive_parametric turns into a ConvergenceError.
        assert all(math.isnan(v) for v in massive_parametric(math.inf))


class TestMassiveDerivative:
    def test_positive_along_curve(self):
        for k in range(-12, 13):
            pi, lam = massive_parametric(10.0 ** (k / 2.0))
            assert dlambda_dpi(None, pi, lam) > 0.0

    def test_off_curve_denominator_guard(self):
        for users in (None, 2):
            with pytest.raises(ValueError):
                dlambda_dpi(users, 0.5, 0.2)

    def test_rejects_nonpositive_power(self):
        for pi, lam in ((0.0, 2.0), (math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                dlambda_dpi(None, pi, lam)


class TestFiniteDerivative:
    @pytest.mark.parametrize("K", [2, 10, 10**4, 10**12])
    def test_matches_central_differences(self, K):
        # Implicit differentiation of the balance equation at K users,
        # against a quotient of roots at pi*(1 -+ 1e-4).
        for pi in (0.1, 1.0, 5.38, 100.0):
            lam = solve_lambda_star(K, pi / K).lambda_star
            slope = dlambda_dpi(K, pi, lam)
            h = 1e-4
            fd = (solve_lambda_star(K, pi * (1 + h) / K).lambda_star
                  - solve_lambda_star(K, pi * (1 - h) / K).lambda_star) / (2 * pi * h)
            assert slope > 0.0
            assert fd == pytest.approx(slope, rel=1e-7)

    @pytest.mark.parametrize("K", [2, 10, 10**12])
    def test_one_formula_for_every_K(self, K):
        # b = 1 + t - t*lam/K is the finite form 1 + (K - lam)*(pi/K)*lam
        # rearranged, and 1 + t at K = inf.
        for pi in (0.1, 5.38, 1000.0):
            lam = solve_lambda_star(K, pi / K).lambda_star
            t = pi * lam
            b = 1.0 + (K - lam) * (pi / K) * lam
            assert dlambda_dpi(K, pi, lam) == pytest.approx(
                (b - lam) / (2.0 + t - b / lam) / pi, rel=1e-12)

    def test_large_K_approaches_the_massive_slope(self):
        pi = 5.38
        massive = dlambda_dpi(None, pi, solve_lambda_massive(pi).lambda_star)
        finite = dlambda_dpi(10**12, pi, solve_lambda_star(10**12, pi / 10**12).lambda_star)
        assert finite == pytest.approx(massive, rel=1e-9)
