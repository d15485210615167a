"""Root finding and curve exploration for feedback power gains.

The finite-user balance residual has a guaranteed sign change on [1, K]
and the massive-limit slack lam - f(pi, lam) has one on [1, inf).  One
routine brackets both by doubling from [1, 2] and bisects; a root is
accepted for its (-, +) bracket, never for a small residual, so nothing
about convergence relies on numerical luck.  The finite residual is the
balanced single-log form, which keeps its sign at large K.  Peak search
runs on the dB axis and uses golden-section refinement, which assumes
only unimodality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ChannelConfig,
    GainSolution,
    db_to_linear,
    f_of,
    linear_to_db,
    massive_parametric,
)

__all__ = [
    "CurvePoint",
    "PeakResult",
    "BracketError",
    "ConvergenceError",
    "NoPeakError",
    "LAMBDA_TOL",
    "MAX_ITER",
    "SCAN_STEP_DB",
    "PEAK_TOL_DB",
    "DEFAULT_FROM_DB",
    "DEFAULT_TO_DB",
    "MAX_GRID_POINTS",
    "check_db_grid",
    "solve_lambda_star",
    "solve_lambda_massive",
    "invert_massive_parametric",
    "eval_point",
    "sweep_curve",
    "find_peak",
]

# Every root is bracketed to LAMBDA_TOL wide; MAX_ITER caps the bracket
# doublings and, separately, the bisection steps.  Peak search scans the
# dB axis at SCAN_STEP_DB and refines the maximum to PEAK_TOL_DB.
LAMBDA_TOL = 1e-12
MAX_ITER = 200
SCAN_STEP_DB = 0.1
PEAK_TOL_DB = 1e-4

DEFAULT_FROM_DB = -10.0
DEFAULT_TO_DB = 30.0

# Sweeps and peak scans refuse larger grids before allocating them.  The
# finest grid in use holds 2001 points; a billion-point grid would exhaust
# memory.
MAX_GRID_POINTS = 20_000

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(RuntimeError):
    """Residual signs at the bracket ends are not (-, +).

    The sign pattern is an analytic guarantee, so seeing this means the
    inputs escaped validation or the residual implementation broke.  It is
    never clamped over.
    """


class ConvergenceError(RuntimeError):
    """The root could not be bracketed to tolerance.

    Raised when a residual is NaN, so it has no sign, or when MAX_ITER runs
    out before the bracket is narrower than LAMBDA_TOL.
    """


class NoPeakError(ValueError):
    """The scanned range has no interior maximum; widen the range."""


@dataclass(frozen=True)
class CurvePoint:
    """One swept sample of a gain curve; field order matches the CSV columns."""

    pi_db: float
    pi: float
    users: int | None
    lam: float
    lam_db: float
    F: float


@dataclass(frozen=True)
class PeakResult:
    """Located maximum of F along one curve.

    bracket_evidence holds the three coarse-scan points (pi_db, F) that
    establish the rise-then-fall pattern around the maximum.
    """

    users: int | None
    pi_star: float
    pi_star_db: float
    F_star: float
    lambda_at_peak: float
    bracket_evidence: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


def _bisect(fn, lo: float, hi: float, f_lo: float, f_hi: float,
            tol: float, max_iter: int) -> tuple[float, float, int]:
    """Bisect fn on [lo, hi] given f(lo) < 0 < f(hi).

    Returns (x, fn(x), iterations) at the evaluated point with smallest
    |fn|.  Stops when the interval is narrower than tol or when no float
    fits strictly between the ends.  A NaN residual carries no sign, and
    max_iter steps that leave a wider bracket certify nothing; both raise
    ConvergenceError.
    """
    if abs(f_lo) <= abs(f_hi):
        best_x, best_f = lo, f_lo
    else:
        best_x, best_f = hi, f_hi
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
        f_mid = fn(mid)
        iterations += 1
        if abs(f_mid) < abs(best_f):
            best_x, best_f = mid, f_mid
        if f_mid < 0.0:
            lo = mid
        elif f_mid > 0.0:
            hi = mid
        elif f_mid == 0.0:
            return mid, 0.0, iterations
        else:
            raise ConvergenceError(f"residual is NaN at lam={mid!r}")
    return best_x, best_f, iterations


def _root(fn, cap: float, where,
          tol: float = LAMBDA_TOL) -> tuple[float, float, int, bool]:
    """Root of fn on [1, cap], where fn is negative below it and positive above.

    Doubles the upper end from 2, never past cap >= 2, until fn turns
    positive, then bisects; the (-, +) bracket certifies the root.  Returns
    (lam, fn(lam), doublings plus bisection steps, degenerate).  If 0 <=
    fn(1) < fn(2), the power is too small for fn to separate lam = 1 from
    the root, which is pinned to 1 as degenerate.  A NaN or MAX_ITER
    doublings raise ConvergenceError, any other sign pattern BracketError;
    every message ends with where(), formatted only on failure.  tol is the
    bracket width bisection must reach.
    """
    lo, f_lo = 1.0, fn(1.0)
    hi, f_hi = 2.0, fn(2.0)
    if 0.0 <= f_lo < f_hi:
        return 1.0, f_lo, 0, True
    expansions = 1
    while f_lo < 0.0 and f_hi <= 0.0 and hi < cap:
        if expansions >= MAX_ITER:
            raise ConvergenceError(f"no sign change up to lam={hi!r} for {where()}")
        lo, f_lo = hi, f_hi
        hi = 2.0 * hi if 2.0 * hi < cap else cap
        f_hi = fn(hi)
        expansions += 1
    if not f_lo <= 0.0 < f_hi:
        if math.isnan(f_lo) or math.isnan(f_hi):  # an overflow inside fn
            nan_at = lo if math.isnan(f_lo) else hi
            raise ConvergenceError(f"residual is NaN at lam={nan_at!r} for {where()}")
        raise BracketError(
            f"residual must change sign from - to + on [{lo!r}, {hi!r}]; "
            f"got ({f_lo!r}, {f_hi!r}) for {where()}"
        )
    try:
        lam, res, iters = _bisect(fn, lo, hi, f_lo, f_hi, tol, MAX_ITER)
    except ConvergenceError as err:
        raise ConvergenceError(f"{err} for {where()}") from None
    return lam, res, expansions + iters, False


def _solve(config: ChannelConfig, tol: float = LAMBDA_TOL) -> GainSolution:
    pi = config.total_power
    if config.is_massive:
        def residual(lam: float) -> float:
            return lam - f_of(pi, lam)

        cap, where = math.inf, lambda: f"pi={pi!r}"
    else:
        K, P = config.users, config.per_user_power
        Kf, KP = float(K), K * P

        def residual(lam: float) -> float:
            # core.db_residual without its validation; hoisting float(K)
            # and K*P leaves every rounding as it is.
            boosted = P * lam * lam / (1.0 + (Kf - lam) * P * lam)
            return Kf * math.log1p(boosted) - math.log1p(KP * lam)

        cap, where = Kf, lambda: f"K={K}, P={P!r}"
    lam, res, iters, degenerate = _root(residual, cap, where, tol)
    capacity_nofb = math.log1p(pi)
    capacity_fb = math.log1p(pi * lam)
    return GainSolution(
        config=config,
        lambda_star=lam,
        residual=res,
        iterations=iters,
        capacity_nofb=capacity_nofb,
        capacity_fb=capacity_fb,
        gain_F=capacity_fb / capacity_nofb,
        degenerate=degenerate,
    )


def solve_lambda_star(K: int, P: float) -> GainSolution:
    """Solve the balance equation for K users at per-user power P.

    Returns the unique root in [1, K] of the balanced residual
    core.db_residual, with the capacities and gain factor filled in.
    """
    return _solve(ChannelConfig.finite(K, per_user_power=P))


def solve_lambda_massive(pi: float) -> GainSolution:
    """Solve lam = f_of(pi, lam) for the massive limit at total power pi."""
    return _solve(ChannelConfig.massive(pi))


def invert_massive_parametric(pi: float) -> tuple[float, float]:
    """Invert the closed-form curve parametrization at total power pi.

    Finds t with massive_parametric(t) = (pi, lam) by bisecting the
    strictly increasing map s -> pi(pi*s) - pi for s = t/pi >= 1; returns
    (t, lam).  This is an independent route to the same curve as
    solve_lambda_massive and is kept separate so the two can cross-check
    each other.
    """
    if pi <= 0.0:
        raise ValueError(f"total power must be > 0, got {pi!r}")

    def overshoot(s: float) -> float:
        return massive_parametric(pi * s)[0] - pi

    # pi(t) <= t, so the root sits at or above t = pi, that is s = 1.
    s, _, _, _ = _root(overshoot, math.inf, lambda: f"pi={pi!r}")
    t = pi * s
    return t, massive_parametric(t)[1]


def eval_point(config: ChannelConfig) -> GainSolution:
    """Solve whichever balance problem the config describes."""
    return _solve(config)


def _config_for(users: int | None, pi: float) -> ChannelConfig:
    if users is None:
        return ChannelConfig.massive(pi)
    return ChannelConfig.finite(users, total_power=pi)


def check_db_grid(from_db: float, to_db: float, step_db: float) -> int:
    """Whole steps of the dB grid from_db..to_db, counted before it is built.

    Raises ValueError for a non-positive step, a reversed range, or a grid
    that would exceed MAX_GRID_POINTS points.
    """
    if not step_db > 0.0:
        raise ValueError(f"step must be > 0 dB, got {step_db!r}")
    if from_db > to_db:
        raise ValueError(f"empty sweep range: from {from_db!r} to {to_db!r} dB")
    steps = (to_db - from_db) / step_db + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(
            f"a {step_db!r} dB step from {from_db!r} to {to_db!r} dB needs more "
            f"than {MAX_GRID_POINTS} grid points"
        )
    return int(steps)


def _db_grid(from_db: float, to_db: float, step_db: float) -> list[float]:
    count = check_db_grid(from_db, to_db, step_db)
    grid = [from_db + i * step_db for i in range(count + 1)]
    if grid[-1] < to_db - 1e-9 * max(1.0, abs(to_db)):
        grid.append(to_db)
    else:
        grid[-1] = to_db
    return grid


def sweep_curve(users: int | None, from_db: float, to_db: float,
                step_db: float) -> list[CurvePoint]:
    """Solve one curve on a uniform dB grid, ascending in pi_db.

    The final point is clamped to to_db; a zero-width range yields the
    single point at from_db.
    """
    points: list[CurvePoint] = []
    for pi_db in _db_grid(from_db, to_db, step_db):
        pi = db_to_linear(pi_db)
        sol = eval_point(_config_for(users, pi))
        points.append(
            CurvePoint(
                pi_db=pi_db,
                pi=pi,
                users=users,
                lam=sol.lambda_star,
                lam_db=linear_to_db(sol.lambda_star),
                F=sol.gain_F,
            )
        )
    return points


def find_peak(users: int | None, from_db: float = DEFAULT_FROM_DB,
              to_db: float = DEFAULT_TO_DB) -> PeakResult:
    """Locate the maximum of F along one curve inside [from_db, to_db].

    A coarse scan at SCAN_STEP_DB finds a rise-then-fall triple, then
    golden-section refinement narrows the dB interval to PEAK_TOL_DB.
    """
    if not to_db > from_db:
        raise ValueError(f"peak search needs from_db < to_db, got {from_db!r}..{to_db!r}")

    def F_at(pi_db: float) -> float:
        sol = eval_point(_config_for(users, db_to_linear(pi_db)))
        return sol.gain_F

    scan = sweep_curve(users, from_db, to_db, SCAN_STEP_DB)
    k = max(range(len(scan)), key=lambda i: scan[i].F)
    if k == 0 or k == len(scan) - 1:
        raise NoPeakError(
            f"F has no interior maximum in [{from_db!r}, {to_db!r}] dB; "
            f"widen the range"
        )
    evidence = tuple((pt.pi_db, pt.F) for pt in scan[k - 1:k + 2])

    lo, hi = scan[k - 1].pi_db, scan[k + 1].pi_db
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = F_at(x1), F_at(x2)
    while hi - lo > PEAK_TOL_DB:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = F_at(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = F_at(x1)

    pi_star_db = 0.5 * (lo + hi)
    pi_star = db_to_linear(pi_star_db)
    sol = eval_point(_config_for(users, pi_star))
    best = (pi_star, pi_star_db, sol.gain_F, sol.lambda_star)
    # The scan maximum is kept as a floor so the result can never dip below
    # its own bracket evidence; the scan already holds its solve.
    top = scan[k]
    if top.F > sol.gain_F:
        best = (top.pi, top.pi_db, top.F, top.lam)
    return PeakResult(users, *best, evidence)
