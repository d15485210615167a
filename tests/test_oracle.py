"""50-digit oracle tests: every solved lambda must be certified by mpmath.

A lambda is certified when the exact residual at the float inputs changes
sign across lambda*(1 - 1e-12) .. lambda*(1 + 1e-12), clamped to the
root's domain (see conftest.finite_certified).  The grids reach far past
the verify suite's sample box: K up to 1e300 and powers from -300 dB to
the top of the float range.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import finite_certified, massive_certified
from macgain.core import ChannelConfig, db_to_linear
from macgain.solvers import (
    LAMBDA_TOL,
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


# Per-user powers where pi*lam overflows at the root or on the doubling
# past it, and K = 2 at 500 dB, whose root lies about 1e-25 below K and is
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


def test_finite_grid_in_one_batch():
    K = np.repeat(GRID_USERS, len(GRID_POWER_DB))
    P = np.tile([db_to_linear(power_db) for power_db in GRID_POWER_DB], len(GRID_USERS))
    lam = _root_many(K, K * P)
    assert uncertified(zip(K.tolist(), P.tolist(), lam.tolist())) == []


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


@pytest.mark.parametrize("users", [None, 10], ids=("massive", "10"))
def test_peak_is_certified(users):
    # F rises 1e-9 dB below the located peak and falls 1e-9 dB above it.
    pi_star_db = find_peak(users).pi_star_db
    assert mp_gain_slope(users, pi_star_db - 1e-9) > 0 > mp_gain_slope(users, pi_star_db + 1e-9)
