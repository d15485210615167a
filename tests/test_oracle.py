"""50-digit oracle tests: every solved lambda must be certified by mpmath.

A lambda is certified when the exact residual at the float inputs changes
sign across lambda*(1 - 1e-12) .. lambda*(1 + 1e-12), clamped to the
root's domain (see conftest.finite_certified).  The grids reach far past
the verify suite's sample box: K up to 1e300 and powers from -300 dB to
the top of the float range.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import finite_certified, massive_certified
from macgain.core import db_to_linear
from macgain.solvers import (
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
)
from macgain.verify import _solve_finite_many

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


def test_finite_grid_in_one_batch():
    K = np.repeat(GRID_USERS, len(GRID_POWER_DB))
    P = np.tile([db_to_linear(power_db) for power_db in GRID_POWER_DB], len(GRID_USERS))
    lam = _solve_finite_many(K, P)
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
