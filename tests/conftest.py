"""Shared fixtures and independent numeric oracles for the test suite.

The oracle helpers re-derive reference values by brute force (dense grids
plus cell bisection) so solver tests never validate the solver against
itself.  scalar_derivative_roots solves check_derivative's points with the
scalar solver, so the check can be tested apart from run_suite's batches,
and curve_slope is the slope dlam/dpi that the check reads off the
residual's slope r'.  frozen_bisect is a test-only ITP kernel (Oliveira &
Takahashi, ACM TOMS 47(1), 2020), an independent route to the roots that
solvers._bisect finds.  frozen_fixed_point is a reference copy of the
residual's value as it was written with module-global math lookups; the
residual must reproduce it bit for bit.  bracketed_bisect certifies each
root of solvers._bisect by the bracket its own points close.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

import macgain.solvers
from macgain.core import _SERIES_CUTOFF, ChannelConfig, _fixed_point, log1p_over_x
from macgain.solvers import ConvergenceError, _bisect, eval_point
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
    residual through the public entry points.  The solves must read the
    patched residual: a test that made no call through it fails.
    """
    split = macgain.solvers._fixed_point
    calls = [0]

    def unsplit(K, pi, lam):
        calls[0] += 1
        return (math.nan, math.nan) if pi * lam == math.inf else split(K, pi, lam)

    monkeypatch.setattr(macgain.solvers, "_fixed_point", unsplit)
    yield
    assert calls[0] > 0, "no solve read the patched residual"


def frozen_bisect(fn, lo, hi, f_lo, f_hi, tol, max_iter):
    """Narrow [lo, hi] given fn(lo) < 0 < fn(hi) by ITP steps, kappa1 = 0.2/width and n0 = 1.

    Each step moves the regula-falsi point toward the midpoint by
    kappa1 * width**2 and projects it into the interval around the midpoint
    that keeps the bracket at most 2**(1 - j) times its initial width after
    step j.  Returns (x, fn(x), iterations) at the evaluated point with the
    smallest |fn|, or at an exact zero; a NaN residual or max_iter steps
    raise ConvergenceError.
    """
    if abs(f_lo) <= abs(f_hi):
        best_x, best_f = lo, f_lo
    else:
        best_x, best_f = hi, f_hi
    k1 = 0.2 / (hi - lo)
    budget = hi - lo
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if iterations == max_iter:
            raise ConvergenceError(
                f"bracket [{lo!r}, {hi!r}] is wider than {tol!r} after "
                f"{max_iter} iterations"
            )
        width = hi - lo
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        d = mid - x_f
        delta = k1 * width * width
        x = x_f + math.copysign(delta, d) if delta <= abs(d) else mid
        r = max(budget - 0.5 * width, 0.0)
        if x < mid - r:
            x = mid - r
        elif x > mid + r:
            x = mid + r
        if not lo < x < hi:
            x = mid
        budget *= 0.5
        f_x = fn(x)
        iterations += 1
        if abs(f_x) < abs(best_f):
            best_x, best_f = x, f_x
        if f_x < 0.0:
            lo, f_lo = x, f_x
        elif f_x > 0.0:
            hi, f_hi = x, f_x
        elif f_x == 0.0:
            return x, 0.0, iterations
        else:
            raise ConvergenceError(f"residual is NaN at lam={x!r}")
    return best_x, best_f, iterations


def bracketed_bisect(fn, lo, hi, f_lo, f_hi, tol, max_iter):
    """solvers._bisect's result, certified by the points it evaluated, and those points.

    Where f is negative at lo and not negative at hi, as _bisect requires,
    the result must be the end with the smaller |f| of the bracket that
    they and the evaluated points close, f >= 0 counting as its upper side:
    at most tol wide, or with no float strictly between its ends, and each
    evaluated point the midpoint of the bracket before it.  A
    ConvergenceError propagates.
    """
    points, values = [], [(lo, f_lo), (hi, f_hi)]

    def logged(x):
        points.append(x)
        result = fn(x)
        values.append((x, result))
        return result

    x, f_x, iterations = _bisect(logged, lo, hi, f_lo, f_hi, tol, max_iter)
    assert iterations == len(points)
    if f_lo < 0.0 <= f_hi:
        below = max((p, f) for p, f in values if f < 0.0)
        above = min((p, f) for p, f in values if f >= 0.0)
        assert (x, f_x) == (below if -below[1] <= above[1] else above)
        assert above[0] - below[0] <= tol or not below[0] < 0.5 * (below[0] + above[0]) < above[0]
        a, b = lo, hi
        for p, f in values[2:]:
            assert p == 0.5 * (a + b)
            a, b = (p, b) if f < 0.0 else (a, p)
    return (x, f_x, iterations), points


def frozen_fixed_point(K, pi, lam):
    """core._fixed_point's value r as written with module-global math lookups."""
    t = pi * lam
    if t < math.inf:
        L = math.log1p(t)
        G = (1.0 + t) * (L / t if t >= _SERIES_CUTOFF else log1p_over_x(t))
    else:
        G = L = math.log(pi) + math.log(lam)
    z = L / K
    return lam - G * (-math.expm1(-z) / z) if z > 0.0 else lam - G


def curve_slope(users, pi, lam):
    """dlam/dpi along a curve at its root lam, from core._fixed_point's slope r'.

    Implicit differentiation of r = lam - G_K(pi*lam), K = inf when users
    is None, gives lam' = lam*(1 - r')/(pi*r'), as verify's
    check_derivative reads it over arrays; r' >= 1, at a root that rounds
    to the cap K, gives +0.0.
    """
    slope = _fixed_point(math.inf if users is None else float(users), pi, lam)[1]
    return lam * (1.0 - slope) / (pi * slope) if slope < 1.0 else 0.0


def raw_residual(lam: float, K: int, P: float) -> float:
    """Per-user balance residual, ln(1+K*P*lam)/K - ln(1+(K-lam)*P*lam)/(K-1).

    The solvers bisect core.db_residual, which is K*(K-1) times this, so it
    checks their roots independently.
    """
    return math.log1p(K * P * lam) / K - math.log1p((K - lam) * P * lam) / (K - 1.0)


def raw_residual_array(lams: np.ndarray, K: int, P: float) -> np.ndarray:
    """Vectorized twin of raw_residual."""
    return np.log1p(K * P * lams) / K - np.log1p((K - lams) * P * lams) / (K - 1.0)


def scalar_derivative_roots() -> np.ndarray:
    """check_derivative's roots, solved point by point.

    lams[u, j] are the scalar solver's roots of curve DERIVATIVE_USERS[u]
    at DERIVATIVE_GRID[j] times 1, 1 + DERIVATIVE_STEP and
    1 - DERIVATIVE_STEP, independent of run_suite's batches.
    """
    h = DERIVATIVE_STEP
    pis = np.outer(DERIVATIVE_GRID, (1.0, 1.0 + h, 1.0 - h))
    lams = [[[eval_point(ChannelConfig(users, total_power=pi)).lambda_star
              for pi in row] for row in pis.tolist()] for users in DERIVATIVE_USERS]
    return np.array(lams)


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
