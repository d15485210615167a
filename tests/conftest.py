"""Shared fixtures and independent numeric oracles for the test suite.

The oracle helpers re-derive reference values by brute force (dense grids
plus cell bisection) so solver tests never validate the solver against
itself.  scalar_derivative_roots solves check_derivative's points with the
scalar solver, so the check can be tested apart from run_suite's batches.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

import macgain.solvers
from macgain.core import ChannelConfig
from macgain.solvers import eval_point
from macgain.verify import DERIVATIVE_GRID, DERIVATIVE_STEP, DERIVATIVE_USERS


def pytest_configure(config):
    config._acceptance_lines = []
    # pyproject's pythonpath puts src/ on this process's path; subprocess
    # tests need it too, so they run this checkout whether or not the
    # package is installed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_log(request):
    """Record one pass/fail line per acceptance criterion for the summary."""

    def log(line: str) -> None:
        request.config._acceptance_lines.append(line)

    return log


@pytest.fixture
def unsplit_residual(monkeypatch):
    """Make every solve's residual NaN where pi*lam overflows.

    core._fixed_point takes ln(1+pi*lam) as ln(pi) + ln(lam) there; the
    unsplit map overflows to NaN at the top of the float range.  This puts
    that failure back, so tests can drive the solver's refusal of a NaN
    residual through the public entry points.
    """
    split = macgain.solvers._fixed_point

    def unsplit(K, pi):
        residual = split(K, pi)
        return lambda lam: math.nan if pi * lam == math.inf else residual(lam)

    monkeypatch.setattr(macgain.solvers, "_fixed_point", unsplit)


def raw_residual(lam: float, K: int, P: float) -> float:
    """Per-user balance residual, ln(1+K*P*lam)/K - ln(1+(K-lam)*P*lam)/(K-1).

    The solvers bisect core.db_residual, which is K*(K-1) times this, so it
    checks their roots independently.
    """
    return math.log1p(K * P * lam) / K - math.log1p((K - lam) * P * lam) / (K - 1.0)


def raw_residual_array(lams: np.ndarray, K: int, P: float) -> np.ndarray:
    """Vectorized twin of raw_residual."""
    return np.log1p(K * P * lams) / K - np.log1p((K - lams) * P * lams) / (K - 1.0)


def scalar_derivative_roots() -> tuple[np.ndarray, np.ndarray]:
    """check_derivative's powers and their roots, solved point by point.

    pis[j] is DERIVATIVE_GRID[j] times 1, 1 + DERIVATIVE_STEP and
    1 - DERIVATIVE_STEP; lams[u, j] are the scalar solver's roots of curve
    DERIVATIVE_USERS[u] there, independent of run_suite's batches.
    """
    h = DERIVATIVE_STEP
    pis = np.outer(DERIVATIVE_GRID, (1.0, 1.0 + h, 1.0 - h))
    lams = [[[eval_point(ChannelConfig(users, total_power=pi)).lambda_star
              for pi in row] for row in pis.tolist()] for users in DERIVATIVE_USERS]
    return pis, np.array(lams)


def finite_certified(K: int, P: float, lam: float, tol: float) -> bool:
    """True when 50-digit arithmetic puts the K-user root within relative tol of lam.

    The balanced residual, evaluated exactly at the float inputs, must be
    <= 0 at lam*(1 - tol) and >= 0 at lam*(1 + tol), both clamped to [1, K].
    """
    with mp.workdps(50):
        K_, P_, lam_ = mpf(K), mpf(P), mpf(lam)

        def residual(x):
            boosted = P_ * x * x / (1 + (K_ - x) * P_ * x)
            return K_ * mp.log1p(boosted) - mp.log1p(K_ * P_ * x)

        lo = max(mpf(1), lam_ * (1 - mpf(tol)))
        hi = min(K_, lam_ * (1 + mpf(tol)))
        return 1 <= lam_ <= K_ and residual(lo) <= 0 <= residual(hi)


def massive_certified(pi: float, lam: float, tol: float) -> bool:
    """The massive-limit twin of finite_certified, on lam - f(pi, lam) over [1, inf)."""
    with mp.workdps(50):
        pi_, lam_ = mpf(pi), mpf(lam)

        def slack(x):
            return x - (1 + 1 / (pi_ * x)) * mp.log1p(pi_ * x)

        lo = max(mpf(1), lam_ * (1 - mpf(tol)))
        return lam_ >= 1 and slack(lo) <= 0 <= slack(lam_ * (1 + mpf(tol)))


def sign_scan_root(K: int, P: float, n_grid: int, refine_tol: float) -> float:
    """Brute-force root of the balance residual on [1, K].

    Evaluates the residual on a uniform grid of n_grid points, takes the
    first sign change, and bisects that single cell down to refine_tol.
    """
    lams = np.linspace(1.0, float(K), n_grid)
    vals = raw_residual_array(lams, K, P)
    idx = int(np.argmax(vals > 0.0))
    assert idx > 0, "expected a sign change inside the grid"
    lo, hi = float(lams[idx - 1]), float(lams[idx])
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if raw_residual(mid, K, P) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def brute_peak_k2(step_db: float = 1e-3) -> tuple[float, float]:
    """Grid-search maximum of F for two users over [-10, 30] dB.

    Solves the balance equation at every grid power by vectorized
    bisection and returns (pi_db, F) at the grid argmax.
    """
    n = int(round(40.0 / step_db)) + 1
    pi_db = np.linspace(-10.0, 30.0, n)
    pis = 10.0 ** (pi_db / 10.0)
    P = pis / 2.0
    lo = np.ones_like(pis)
    hi = np.full_like(pis, 2.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        vals = np.log1p(2.0 * P * mid) / 2.0 - np.log1p((2.0 - mid) * P * mid)
        positive = vals > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, mid)
    lam = 0.5 * (lo + hi)
    F = np.log1p(pis * lam) / np.log1p(pis)
    k = int(np.argmax(F))
    return float(pi_db[k]), float(F[k])
