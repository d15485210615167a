"""50-digit oracle tests: every solved lambda must be certified by mpmath.

A lambda is certified when the exact residual at the float inputs changes
sign across lambda*(1 - 1e-12) .. lambda*(1 + 1e-12), clamped to the
root's domain (see conftest.finite_certified).  The grids reach far past
the verify suite's sample box: K up to 1e300 and powers from -300 dB to
the top of the float range.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf

import macgain.solvers
import macgain.verify
from conftest import curve_slope, finite_certified, massive_certified
from macgain.core import (_RESIDUAL_ULPS, ChannelConfig, _fixed_point, _fixed_point_many,
                          _lambda_bound, _slope_floor, _slope_floor_many, db_to_linear)
from macgain.solvers import (
    DEFAULT_USERS,
    LAMBDA_TOL,
    eval_point,
    find_peak,
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
)
from macgain.verify import (
    DERIVATIVE_GRID,
    DERIVATIVE_STEP,
    DERIVATIVE_USERS,
    _root_many,
)
from test_cli import GOLDEN_STDOUT

TOL = 1e-12

GRID_USERS = (2, 3, 10, 100, 10**4, 10**6, 10**8, 10**10, 10**12, 10**15)

GRID_POWER_DB = (-120, -90, -60, -30, 0, 20, 54, 56, 60, 100, 200, 500, 1000)

HUGE_USERS = (10**20, 10**60, 10**300)

HUGE_POWER_DB = (-300, -200, -120, -60, 0, 20)

MASSIVE_POWER_DB = tuple(range(-300, 3051, 50))


def uncertified(points):
    """The (K, P, lam) triples whose lam the oracle does not certify."""
    return [(K, P, lam) for K, P, lam in points if not finite_certified(K, P, lam, TOL)]


@pytest.mark.parametrize("K", GRID_USERS)
def test_finite_grid(K):
    points = []
    for power_db in GRID_POWER_DB:
        P = db_to_linear(power_db)
        points.append((K, P, solve_lambda_star(K, P).lambda_star))
    assert uncertified(points) == []


@pytest.mark.parametrize("K", HUGE_USERS, ids=("1e20", "1e60", "1e300"))
def test_finite_beyond_the_grid(K):
    points = []
    for power_db in HUGE_POWER_DB:
        P = db_to_linear(power_db)
        points.append((K, P, solve_lambda_star(K, P).lambda_star))
    assert uncertified(points) == []


def test_vanishing_power_pins_a_certified_root():
    sol = solve_lambda_star(2, db_to_linear(-200.0))
    assert sol.degenerate and sol.lambda_star == 1.0
    assert finite_certified(2, db_to_linear(-200.0), 1.0, TOL)


# Per-user powers where pi*lam overflows at the root or at the bracket's
# upper end, and K = 2 at 500 dB, whose root lies about 1e-25 below K and is
# taken at the cap.
TOP_OF_RANGE = ((2, 3077.5), (10, 3065.0), (1000, 3027.5), (2, 500.0))


def test_top_of_the_range_and_cap_roots():
    points = []
    for K, power_db in TOP_OF_RANGE:
        P = db_to_linear(power_db)
        points.append((K, P, solve_lambda_star(K, P).lambda_star))
    assert points[-1][2] == 2.0
    assert uncertified(points) == []
    pi = db_to_linear(3052.5)
    assert massive_certified(pi, solve_lambda_massive(pi).lambda_star, TOL)


def handed_over(monkeypatch):
    """The configs verify's batch hands to the scalar solver, in order, from now on."""
    handed = []

    def scalar(config):
        handed.append(config)
        return eval_point(config)

    monkeypatch.setattr(macgain.verify, "eval_point", scalar)
    return handed


def test_finite_grid_in_one_batch(monkeypatch):
    # The batch settles every grid root below pi = 1e52 itself.  The 14
    # from K = 100 up at pi >= 1e52 it hands to the scalar solver: their
    # float32 t = pi*lam overflows, so the float64 passes start at hi, and
    # two do not settle them.  K = 2, 3 and 10 at 1000 dB start there too,
    # but at the cap K, within 1e-9 of their roots.
    handed = handed_over(monkeypatch)
    K = np.repeat(GRID_USERS, len(GRID_POWER_DB))
    P = np.tile([db_to_linear(power_db) for power_db in GRID_POWER_DB], len(GRID_USERS))
    lam = _root_many(K, K * P)
    assert uncertified(zip(K.tolist(), P.tolist(), lam.tolist())) == []
    assert [(config.users, config.total_power) for config in handed] == [
        (k, pi) for k, pi in zip(K.tolist(), (K * P).tolist()) if pi >= 1e52 and k >= 100]
    assert len(handed) == 14


def test_massive_and_inversion():
    failed = []
    for pi_db in MASSIVE_POWER_DB:
        pi = db_to_linear(pi_db)
        lam = solve_lambda_massive(pi).lambda_star
        t, lam_param = invert_massive_parametric(pi)
        if not (massive_certified(pi, lam, TOL) and t >= pi
                and massive_certified(pi, lam_param, TOL)):
            failed.append(pi_db)
    assert failed == []


# Every kind of input the CLI accepts: K from 2 to 1e300 and the massive
# limit, at 257 powers 24.68 dB apart from -3236 to 3082.5 dB, each taken as
# a per-user and as a total power.  Powers ChannelConfig refuses are skipped.
WALK_USERS = (2, 10, 10**3, 10**6, 10**12, 10**100, 10**300, None)
WALK_POWER_DB = tuple(-3236.0 + i * 24.681640625 for i in range(257))


def walk_configs():
    configs = []
    for users in WALK_USERS:
        for power_db in WALK_POWER_DB:
            power = db_to_linear(power_db)
            for per_user in (False,) if users is None else (True, False):
                try:
                    configs.append(ChannelConfig(users, power) if per_user
                                   else ChannelConfig(users, total_power=power))
                except ValueError:
                    pass
    return configs


def mp_fixed_point(users, pi, x):
    """x - G_K(pi*x) at the float inputs, users None the massive limit, exactly enough to sign.

    G_K(t) = (1+t)*(L/t)*phi(L/K), with L = ln(1+t) and phi(z) =
    -expm1(-z)/z, in 60 digits plus as many as t has leading zeros, so
    that 1 + t keeps t.
    """
    t = mpf(pi) * mpf(x)
    with mp.workdps(60 + max(0, -int(mp.floor(mp.log10(t))))):
        t = mpf(pi) * mpf(x)
        L = mp.log1p(t)
        G = (1 + t) * L / t
        if users is not None:
            z = L / users
            G *= -mp.expm1(-z) / z
        return mpf(x) - G


def test_upper_end_lies_above_every_root():
    # core._lambda_bound's end on the walk: where it lies below K, the exact
    # residual there is > 0, so it lies above the root, and so is the float
    # residual, at the end and at the solver's upper end hi = min(K,
    # max(end, 1 + 2*LAMBDA_TOL)).  Where r(1) >= 0 in floats, the solver
    # pins the root to 1 only if r still rises to the upper end: r(1) <
    # r(end) and r(1) < r(hi).  Without its 1 + 1e-14 margin the end falls
    # below the exact root.
    configs = walk_configs()
    checked, pinned, failed = 0, 0, []
    for config in configs:
        pi = config.total_power
        cap = math.inf if config.users is None else float(config.users)
        r_1 = _fixed_point(cap, pi, 1.0)[0]
        end = _lambda_bound(pi, math.log1p(pi))
        r_end = _fixed_point(cap, pi, min(end, cap))[0]
        r_hi = _fixed_point(cap, pi, min(max(end, 1.0 + 2.0 * LAMBDA_TOL), cap))[0]
        ok = r_1 < 0.0 or r_1 < min(r_end, r_hi)
        pinned += r_1 >= 0.0
        if end < cap:
            checked += 1
            ok = ok and r_end > 0.0 and r_hi > 0.0 and mp_fixed_point(config.users, pi, end) > 0
        if not ok:
            failed.append((config.users, pi, end))
    # 3505 inputs; 3009 of their ends lie below K and 1531 read r(1) >= 0.
    assert failed == []
    assert len(configs) == 3505 and checked > 3000 and pinned > 1500


def test_batch_start_lies_above_every_root():
    # verify's batch starts every element at min(K, 2 + 2a), a = ln(1+pi)
    # in numpy's log1p, and steps down from there.  On the walk, where the
    # start lies below K, the exact residual there is > 0, and so is the
    # float one, unless pi*start overflows: the float residual is then NaN,
    # and the batch hands the element to the scalar solver.
    configs = walk_configs()
    pis = np.array([config.total_power for config in configs])
    caps = np.array([math.inf if config.users is None else config.users for config in configs],
                    dtype=float)
    starts = np.minimum(2.0 + 2.0 * np.log1p(pis), caps)
    with np.errstate(all="ignore"):
        r = _fixed_point_many(caps, pis, starts, np.empty((5, pis.size)))[0]
        overflows = pis * starts == math.inf
    below = np.flatnonzero(starts < caps)
    failed = [(configs[i].users, pis[i], starts[i]) for i in below
              if not ((r[i] > 0.0 or overflows[i] and math.isnan(r[i]))
                      and mp_fixed_point(configs[i].users, pis[i], starts[i]) > 0)]
    # 2669 of the 3505 starts lie below K, 15 of them where pi*start overflows.
    assert failed == []
    assert below.size == 2669 and int(overflows[below].sum()) == 15


def test_the_walk_in_one_batch(monkeypatch):
    # verify's batch over the walk hands 1235 of the 3505 inputs to the
    # scalar solver: every root above 421.05, where E alone exceeds the
    # slope floor's bound, and the elements below that whose two float64
    # passes leave a step of tol/4 or more, or |r(w)| + E above the bound.
    # Each has pi above 2.5e36, where its float32 t = pi*lam overflows: the
    # float32 point is NaN, so the float64 passes start at hi.  1223 have
    # pi above float32's largest float, and 12 pi from 2.6e36 to 1.3e38.
    # K = 2 at pi = 7.66e88 has its root an ulp below the cap 2: its
    # float64 passes start at 2, where the first only steps, and the
    # second steps back above 2 on float noise (r(2) = 2.2e-16, r(2 - ulp)
    # = -6.7e-16).  eval_point roots it at 2 - ulp.  Every root the batch
    # settles itself shows an exact sign change across +-LAMBDA_TOL, and
    # every root it hands on is eval_point's.  The batch builds each config
    # from a float K, so a K above 2**53 is matched as int(float(K)).
    handed = handed_over(monkeypatch)
    configs = walk_configs()
    pis = np.array([config.total_power for config in configs])
    caps = np.array([math.inf if config.users is None else config.users for config in configs],
                    dtype=float)
    lam = _root_many(caps, pis).tolist()
    assert len(handed) == 1235
    powers = [config.total_power for config in handed]
    assert min(powers) > 2.5e36
    assert sum(pi > float(np.finfo(np.float32).max) for pi in powers) == 1223
    cap_root = ChannelConfig(2, total_power=7.663522435439674e+88)
    assert cap_root in handed and eval_point(cap_root).lambda_star == math.nextafter(2.0, 0.0)
    handed_set = set(handed)
    batch_configs = [ChannelConfig(None if cap == math.inf else int(cap), total_power=pi)
                     for cap, pi in zip(caps.tolist(), pis.tolist())]
    is_handed = [config in handed_set for config in batch_configs]
    assert [x for x, out in zip(lam, is_handed) if out] == [
        eval_point(config).lambda_star for config in handed]
    assert max(x for x, out in zip(lam, is_handed) if not out) < 421.06
    failed = [(config.users, config.total_power, x)
              for config, x, out in zip(configs, lam, is_handed)
              if not out and not mp_fixed_point(
                  config.users, config.total_power, x - LAMBDA_TOL) < 0
              < mp_fixed_point(config.users, config.total_power, x + LAMBDA_TOL)]
    assert failed == []


# Steps i of the total powers 2000 + i*0.01 dB, 2000 to 3082 dB, at which
# the scalar solve's probe reads r = 0.0 exactly, by K: 73 of the 973809
# solves there for K = 2, 3, 10, 100, 1e4, 1e6, 1e12, 1e100 and the massive
# limit.
PROBE_ZEROS = {
    10**4: (30299, 47685, 48940, 53147, 54355, 55579, 57665, 61573, 62778, 64252, 68192,
            68194, 69693, 70298, 70301, 70600, 71202, 71499, 72709, 72720, 74809, 75109,
            76376, 76916, 77816, 78423, 78717, 82634, 83235, 84440, 86547, 88044, 88046,
            88588, 88641, 89548, 90152, 90809, 91054, 91304, 91338, 92254, 92564, 93760,
            93830, 93979, 94065, 95873, 97028, 97072, 97076, 97973, 98576, 99475, 99478,
            99485, 100685, 100743, 100982, 101203, 101886, 104316, 105197),
    10**6: (58553, 66981, 77204, 84128, 86833, 89834, 104876),
    10**12: (92246,),
    10**100: (52838,),
    None: (52838,),
}


def test_a_probe_that_reads_zero_settles_at_the_probe(monkeypatch):
    # A probe reading r = 0.0 closes no (-, +) pair; the slope floor at the
    # probe certifies it instead, so none of these solves reaches _bisect,
    # each takes at most 4 evaluations, and its root, the probe, shows an
    # exact sign change across +-LAMBDA_TOL.
    def refuse(*args):
        raise AssertionError("_bisect ran")

    monkeypatch.setattr(macgain.solvers, "_bisect", refuse)
    failed, solves = [], 0
    for users, steps in PROBE_ZEROS.items():
        for i in steps:
            pi = db_to_linear(2000.0 + i * 0.01)
            sol = eval_point(ChannelConfig(users, total_power=pi))
            lam, solves = sol.lambda_star, solves + 1
            if not (sol.residual == 0.0 and sol.iterations <= 4
                    and mp_fixed_point(users, pi, lam - LAMBDA_TOL) < 0
                    < mp_fixed_point(users, pi, lam + LAMBDA_TOL)):
                failed.append((users, i, lam))
    assert failed == [] and solves == 73


def mp_slope(users, pi, y):
    """r'(y) = 1 - (exp(-z) - G_K(t)/(1+t))/y at t = pi*y, z = ln(1+t)/K, as mp_fixed_point."""
    t = mpf(pi) * mpf(y)
    with mp.workdps(60 + max(0, -int(mp.floor(mp.log10(t))))):
        t = mpf(pi) * mpf(y)
        L = mp.log1p(t)
        G, decay = (1 + t) * L / t, 1
        if users is not None:
            z = L / users
            G *= -mp.expm1(-z) / z
            decay = mp.exp(-z)
        return 1 - (decay - G / (1 + t)) / y


def test_the_slope_floor_holds_on_the_walk():
    # core._slope_floor(pi, hi) bounds r' on [G_2(pi), hi] from below, hi
    # above the root: r is convex, so r' is least at G_2(pi), and the floor
    # lies below that slope in 60 digits, at both solvers' upper ends, up to
    # the float floor's own rounding: it exceeds the slope by at most
    # 4.5e-17 relative, where pi*hi is large and both are a little above
    # 1/2.  The batch's floor repeats the scalar one bit for bit.
    configs = walk_configs()
    pis = np.array([config.total_power for config in configs])
    caps = np.array([math.inf if config.users is None else config.users for config in configs],
                    dtype=float)
    bounds = [_lambda_bound(pi, math.log1p(pi)) for pi in pis.tolist()]
    ends = [np.minimum(caps, np.maximum(bounds, 1.0 + 2.0 * LAMBDA_TOL)),
            np.minimum(caps, 2.0 + 2.0 * np.log1p(pis))]
    failed = []
    for config, pi, solve_hi, batch_hi in zip(configs, pis.tolist(), *(e.tolist() for e in ends)):
        with mp.workdps(60):
            u = mp.sqrt(1 + mpf(pi))
            least = mp_slope(config.users, pi, 2 * u / (1 + u))
            for hi in (solve_hi, batch_hi):
                if not _slope_floor(pi, hi) <= least * (1 + mpf(2) ** -51):
                    failed.append((config.users, pi, hi))
    assert failed == []
    for hi in ends:
        with np.errstate(over="ignore"):  # pi*hi overflows to inf, and its reciprocal is 0
            many = _slope_floor_many(pis, hi, np.empty((2, pis.size)))
        assert many.tolist() == [_slope_floor(pi, end)
                                 for pi, end in zip(pis.tolist(), hi.tolist())]


def mp_fixed_points_near(users, pi, lam, ys):
    """mp_fixed_point at each float y of ys, rounded to a float; ys ascending, near lam.

    Every y lies within 16 ulps of lam.  One log1p and one expm1 serve
    them all, at mp_fixed_point's working precision for the first y, whose
    t has the most leading zeros.  With t0 = pi*lam, L0 = ln(1+t0) and
    eps = pi*(y - lam)/(1+t0), exactly ln(1 + pi*y) = L0 + log1p(eps);
    with z = L/K and dz = log1p(eps)/K, exactly expm1(-z) = E0 +
    (1+E0)*expm1(-dz), E0 = expm1(-L0/K).  Each increment is its quadratic
    Taylor polynomial.  |eps| <= 16*2**-52*t0/(1+t0), under 3.6e-15 and
    3.6e-15*L0, and |dz| <= 1.01*|eps|/K, so the truncations, at most
    |eps|**3/(3(1 - |eps|)) and |dz|**3/6*e**|dz|, move L and expm1(-z) by
    under 2e-44 relative and r by under 1e-27 ulps of y.
    """
    with mp.workdps(60 + max(0, -int(mp.floor(mp.log10(mpf(pi) * mpf(ys[0])))))):
        pi_mp = mpf(pi)
        t0 = pi_mp * lam
        L0 = mp.log1p(t0)
        per_eps = pi_mp / (1 + t0)
        half = mpf(1) / 2
        if users is not None:
            K = mpf(users)
            E0 = mp.expm1(-L0 / K)
            decay0 = 1 + E0
        out = []
        for y in ys:
            eps = per_eps * (y - lam)  # y - lam is exact
            s = eps - eps * eps * half
            L = L0 + s
            G = L + L / (pi_mp * y)
            if users is not None:
                dz = s / K
                G *= (decay0 * (dz - dz * dz * half) - E0) / (L / K)
            out.append(float(y - G))
        return out


def test_the_residual_error_bound_holds_on_the_walk():
    # Both float residuals, core._fixed_point's and _fixed_point_many's,
    # lie within _RESIDUAL_ULPS ulps of y of the exact residual at every
    # float y within 16 ulps of a walk root, at or above 1, by a margin of
    # at least 1.3: the worst is 2.92 ulps (K = 1000 at 3008 dB, lam =
    # 502.9).  The batch's NaN where pi*y overflows is its hand-off.  The
    # exact residual is a few ulps of y, so rounding it to a float moves
    # each difference by under 1e-14 ulps.
    ys, exact, scalar, caps, pis = [], [], [], [], []
    for config in walk_configs():
        lam, pi = eval_point(config).lambda_star, config.total_power
        cap = math.inf if config.users is None else float(config.users)
        near = [y for y in (lam + k * math.ulp(lam) for k in range(-16, 17)) if y >= 1.0]
        ys += near
        exact += mp_fixed_points_near(config.users, pi, lam, near)
        scalar += [_fixed_point(cap, pi, y)[0] for y in near]
        caps += [cap] * len(near)
        pis += [pi] * len(near)
    ys, exact = np.array(ys), np.array(exact)
    with np.errstate(all="ignore"):
        batch = _fixed_point_many(np.array(caps), np.array(pis), ys, np.empty((5, ys.size)))[0]
    worst = max(np.nanmax(np.abs(r - exact) / np.spacing(ys)) for r in (np.array(scalar), batch))
    assert ys.size > 90_000
    assert 1.3 * worst <= _RESIDUAL_ULPS, worst


def test_no_solve_from_1e_10_up_is_pinned_to_1():
    # From 1e-10 up, r(1) <= 1 - G_2(pi) < -2*LAMBDA_TOL, so no solve is
    # pinned to 1, and none returns a residual that is not finite: at 1e-10,
    # the next float, and every 7.3 dB step above -100 dB up to 3075.5 dB,
    # near the top of the float range.
    powers = [1e-10, math.nextafter(1e-10, math.inf)] + [
        db_to_linear(-100.0 + 7.3 * i) for i in range(1, 436)]
    assert powers[-1] > 1e307
    failed = []
    for users in GRID_USERS + (None,):
        for pi in powers:
            sol = eval_point(ChannelConfig(users, total_power=pi))
            if not (sol.lambda_star > 1.0 and math.isfinite(sol.residual)
                    and not sol.degenerate):
                failed.append((users, pi, sol))
    assert failed == []


@pytest.mark.parametrize("pi", [0.1, 5.38, 1000.0])
def test_finite_converges_to_massive(pi):
    # lam(K, pi/K) approaches the massive limit like c/K, with c about 0.05,
    # 1.96 and 5.12 at these powers.
    massive = solve_lambda_massive(pi).lambda_star
    for exponent in range(2, 15):
        K = 10**exponent
        lam = solve_lambda_star(K, pi / K).lambda_star
        assert abs(lam - massive) / massive <= 10.0 / K, K


def test_golden_lambdas_are_certified():
    # The full-precision lambdas frozen in test_cli.GOLDEN_STDOUT are roots,
    # not only the bytes some release printed.
    text = dict(line.split(" = ") for line in GOLDEN_STDOUT[
        "solve --users 3 --power-db 10 --precision 17 --bits"].splitlines())
    massive = json.loads(GOLDEN_STDOUT["solve --massive --total-power-db 30 --format json"])
    hundred = json.loads(GOLDEN_STDOUT["solve --users 100 --power-db 0 --format json"])
    peak = json.loads(GOLDEN_STDOUT["peak --users 10 --format json"])
    peak_P = ChannelConfig.finite(10, total_power=peak["pi_star"]).per_user_power
    assert finite_certified(3, db_to_linear(10.0), float(text["lambda_star"]), TOL)
    assert massive_certified(massive["pi"], massive["lambda"], TOL)
    assert finite_certified(100, db_to_linear(0.0), hundred["lambda"], TOL)
    assert finite_certified(10, peak_P, peak["lambda_at_peak"], TOL)


def mp_balance(users, pi, x):
    """The balance residual at total power pi in mpmath; users None is the massive limit."""
    if users is None:
        return x - (1 + 1 / (pi * x)) * mp.log1p(pi * x)
    K = mpf(users)
    P = pi / K
    return K * mp.log1p(P * x * x / (1 + (K - x) * P * x)) - mp.log1p(K * P * x)


def mp_lambda(users, pi):
    """mpmath's root of mp_balance, bracketed on [1, K], or on [1, 100] when massive."""
    cap = 100 if users is None else users
    return mp.findroot(lambda x: mp_balance(users, pi, x), (mpf(1), mpf(cap)),
                       solver="anderson")


@pytest.mark.parametrize("users", GRID_USERS + (None,),
                         ids=lambda users: "massive" if users is None else str(users))
def test_slope_matches_implicit_derivative(users):
    # lam*(1 - r')/(pi*r'), with the fixed-point residual's slope r', against the
    # implicit derivative -(dB/dpi)/(dB/dlam) of the paper-form balance
    # residual B in 50 digits, both at the float root, from -60 to 100 dB
    # total.  The worst is 2.8e-10 (K = 2, -60 dB), where 1 - r' cancels.
    worst = []
    with mp.workdps(50):
        for power_db in range(-60, 101, 5):
            pi = db_to_linear(power_db)
            lam = eval_point(ChannelConfig(users, total_power=pi)).lambda_star
            pi_, lam_ = mpf(pi), mpf(lam)
            exact = (-mp.diff(lambda p: mp_balance(users, p, lam_), pi_)
                     / mp.diff(lambda x: mp_balance(users, pi_, x), lam_))
            worst.append((abs(curve_slope(users, pi, lam) - exact) / exact, power_db))
    rel, power_db = max(worst)
    assert rel <= 1e-8, (rel, power_db)


def test_derivative_step_error_budget():
    # check_derivative compares the analytic slope with a central difference
    # of roots bracketed to LAMBDA_TOL.  At its step, the quotient's exact
    # truncation error plus what two such roots can move it by,
    # LAMBDA_TOL/(pi*h*lam'), must stay within a tenth of the check's 1e-5
    # bound on every curve it checks.
    h = DERIVATIVE_STEP
    with mp.workdps(40):
        for users in DERIVATIVE_USERS:
            for pi in DERIVATIVE_GRID:
                pi_ = mpf(pi)
                root = mp_lambda(users, pi_)
                slope = (-mp.diff(lambda p: mp_balance(users, p, root), pi_)
                         / mp.diff(lambda x: mp_balance(users, pi_, x), root))
                # The quotient's powers are the floats run_suite solves at.
                fd = ((mp_lambda(users, mpf(pi * (1.0 + h)))
                       - mp_lambda(users, mpf(pi * (1.0 - h)))) / (2 * pi_ * mpf(h)))
                truncation = abs(fd - slope) / slope
                root_noise = LAMBDA_TOL / (pi_ * mpf(h) * slope)
                assert truncation + root_noise <= 1e-6, (users, pi)


def mp_gain_slope(users, pi_db):
    """dF/dpi at pi_db dB in 50-digit arithmetic, from mpmath's own roots.

    F(pi) = ln(1 + pi*lam)/ln(1 + pi) with lam found by mp.findroot on the
    balance equation (the massive fixed point for users None), and the
    slope by mp.diff: no macgain formula enters.
    """
    with mp.workdps(50):
        def gain(pi):
            return mp.log1p(pi * mp_lambda(users, pi)) / mp.log1p(pi)

        return mp.diff(gain, mpf(10) ** (mpf(pi_db) / 10))


@pytest.mark.parametrize("users", DEFAULT_USERS,
                         ids=lambda users: "massive" if users is None else str(users))
def test_peak_is_certified(users):
    # F rises 1e-11 dB below the located peak and falls 1e-11 dB above it.
    # The bracket evidence, at most LAMBDA_TOL wide, certifies the sign
    # change of the float slope, not of the exact one; this pins the peak.
    pi_star_db = find_peak(users).pi_star_db
    assert mp_gain_slope(users, pi_star_db - 1e-11) > 0 > mp_gain_slope(users, pi_star_db + 1e-11)
