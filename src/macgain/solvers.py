"""Root finding and curve exploration for feedback power gains.

The finite-user balance residual has a guaranteed sign change on [1, K]
and the massive-limit slack lam - f(pi, lam) has one on [1, inf), so plain
bisection is the contract in both cases; nothing about convergence relies
on numerical luck.  Peak search runs on the dB axis and uses golden-section
refinement, which assumes only unimodality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ChannelConfig,
    GainSolution,
    capacity_fb,
    capacity_nofb,
    db_to_linear,
    f_of,
    gain_factor,
    linear_to_db,
    massive_parametric,
)

__all__ = [
    "SolverSettings",
    "CurvePoint",
    "PeakResult",
    "BracketError",
    "ConvergenceError",
    "NoPeakError",
    "DEFAULT_SETTINGS",
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
    """Bisection finished without meeting the residual tolerance."""


class NoPeakError(ValueError):
    """The scanned range has no interior maximum; widen the range."""


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and step sizes shared by all solvers.

    lambda_tol and residual_tol are absolute; scan_step_db and peak_tol_db
    act on the dB axis during peak search.
    """

    lambda_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 200
    scan_step_db: float = 0.1
    peak_tol_db: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("lambda_tol", "residual_tol", "scan_step_db", "peak_tol_db"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


DEFAULT_SETTINGS = SolverSettings()


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
    |fn|.  Stops when the interval is narrower than tol, when no float
    fits strictly between the ends, or at the iteration cap.  A NaN
    residual carries no sign and raises ConvergenceError.
    """
    if abs(f_lo) <= abs(f_hi):
        best_x, best_f = lo, f_lo
    else:
        best_x, best_f = hi, f_hi
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
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
            raise ConvergenceError(f"residual is NaN at {mid!r}")
    return best_x, best_f, iterations


def _solve_finite(config: ChannelConfig, settings: SolverSettings) -> GainSolution:
    K = config.users
    P = config.per_user_power
    pi = config.total_power
    Km1 = K - 1.0

    def residual(lam: float) -> float:
        # Same arithmetic as db_residual(..., form="raw"), inlined to keep
        # per-call validation out of the bisection loop.
        return math.log1p(K * P * lam) / K - math.log1p((K - lam) * P * lam) / Km1

    f_lo = residual(1.0)
    f_hi = residual(float(K))
    if abs(f_lo) <= settings.residual_tol and abs(f_hi) <= settings.residual_tol:
        # Vanishing power: the residual is below tolerance across the whole
        # interval, so pin the root to its known limit instead of bisecting
        # noise.
        return GainSolution(
            config=config,
            lambda_star=1.0,
            residual=f_lo,
            iterations=0,
            capacity_nofb=capacity_nofb(pi),
            capacity_fb=capacity_fb(pi, 1.0),
            gain_F=gain_factor(pi, 1.0),
            degenerate=True,
        )
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"balance residual must be negative at lam=1 and positive at "
            f"lam=K; got ({f_lo!r}, {f_hi!r}) for K={K}, P={P!r}"
        )
    lam, res, iters = _bisect(
        residual, 1.0, float(K), f_lo, f_hi, settings.lambda_tol, settings.max_iter
    )
    if abs(res) > settings.residual_tol:
        raise ConvergenceError(
            f"residual {res!r} still above {settings.residual_tol!r} after "
            f"{iters} iterations for K={K}, P={P!r}"
        )
    return GainSolution(
        config=config,
        lambda_star=lam,
        residual=res,
        iterations=iters,
        capacity_nofb=capacity_nofb(pi),
        capacity_fb=capacity_fb(pi, lam),
        gain_F=gain_factor(pi, lam),
    )


def _solve_massive(config: ChannelConfig, settings: SolverSettings) -> GainSolution:
    pi = config.total_power

    def slack(lam: float) -> float:
        return lam - f_of(pi, lam)

    # slack(1) = 1 - f(pi, 1) < 0 for every pi > 0; expand the upper end
    # until the slack turns positive, which must happen because f grows
    # only logarithmically in lam.
    lo, f_lo = 1.0, slack(1.0)
    hi = 2.0
    f_hi = slack(hi)
    expansions = 1
    while f_hi <= 0.0:
        if expansions >= settings.max_iter:
            raise ConvergenceError(
                f"no sign change of the fixed-point slack up to lam={hi!r} "
                f"for pi={pi!r}"
            )
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = slack(hi)
        expansions += 1
    if math.isnan(f_hi):
        # pi*lam overflowed inside f_of; the slack has no sign to bisect.
        raise ConvergenceError(
            f"fixed-point slack is NaN at lam={hi!r} for pi={pi!r}"
        )
    lam, res, iters = _bisect(
        slack, lo, hi, f_lo, f_hi, settings.lambda_tol, settings.max_iter
    )
    if abs(res) > settings.residual_tol:
        raise ConvergenceError(
            f"fixed-point slack {res!r} still above {settings.residual_tol!r} "
            f"after {iters} iterations for pi={pi!r}"
        )
    return GainSolution(
        config=config,
        lambda_star=lam,
        residual=res,
        iterations=expansions + iters,
        capacity_nofb=capacity_nofb(pi),
        capacity_fb=capacity_fb(pi, lam),
        gain_F=gain_factor(pi, lam),
    )


def solve_lambda_star(K: int, P: float,
                      settings: SolverSettings = DEFAULT_SETTINGS) -> GainSolution:
    """Solve the balance equation for K users at per-user power P.

    Returns the unique root of the raw residual in [1, K] with the
    capacities and gain factor filled in.
    """
    return _solve_finite(ChannelConfig.finite(K, per_user_power=P), settings)


def solve_lambda_massive(pi: float,
                         settings: SolverSettings = DEFAULT_SETTINGS) -> GainSolution:
    """Solve lam = f_of(pi, lam) for the massive limit at total power pi."""
    return _solve_massive(ChannelConfig.massive(pi), settings)


def invert_massive_parametric(pi: float,
                              settings: SolverSettings = DEFAULT_SETTINGS) -> tuple[float, float]:
    """Invert the closed-form curve parametrization at total power pi.

    Finds t with massive_parametric(t) = (pi, lam) by bisecting the
    strictly increasing map t -> pi(t); returns (t, lam).  This is an
    independent route to the same curve as solve_lambda_massive and is
    kept separate so the two can cross-check each other.
    """
    if pi <= 0.0:
        raise ValueError(f"total power must be > 0, got {pi!r}")

    def overshoot(t: float) -> float:
        return massive_parametric(t)[0] - pi

    # pi(t) <= t, so the root sits at or above t = pi.
    lo, f_lo = pi, overshoot(pi)
    if f_lo >= 0.0:
        return pi, massive_parametric(pi)[1]
    hi = max(2.0 * pi, 2.0)
    f_hi = overshoot(hi)
    expansions = 1
    while f_hi <= 0.0:
        if expansions >= settings.max_iter:
            raise ConvergenceError(f"could not bracket t for pi={pi!r}")
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = overshoot(hi)
        expansions += 1
    # lam moves slower than t everywhere on the curve, so a relative t
    # width of 0.1 * lambda_tol leaves lam well inside lambda_tol.
    t_tol = 0.1 * settings.lambda_tol * max(1.0, hi)
    t, _, _ = _bisect(overshoot, lo, hi, f_lo, f_hi, t_tol, settings.max_iter)
    return t, massive_parametric(t)[1]


def eval_point(config: ChannelConfig,
               settings: SolverSettings = DEFAULT_SETTINGS) -> GainSolution:
    """Solve whichever balance problem the config describes."""
    if config.is_massive:
        return _solve_massive(config, settings)
    return _solve_finite(config, settings)


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


def sweep_curve(users: int | None, from_db: float, to_db: float, step_db: float,
                settings: SolverSettings = DEFAULT_SETTINGS) -> list[CurvePoint]:
    """Solve one curve on a uniform dB grid, ascending in pi_db.

    The final point is clamped to to_db; a zero-width range yields the
    single point at from_db.
    """
    points: list[CurvePoint] = []
    for pi_db in _db_grid(from_db, to_db, step_db):
        pi = db_to_linear(pi_db)
        sol = eval_point(_config_for(users, pi), settings)
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
              to_db: float = DEFAULT_TO_DB,
              settings: SolverSettings = DEFAULT_SETTINGS) -> PeakResult:
    """Locate the maximum of F along one curve inside [from_db, to_db].

    A coarse scan at scan_step_db finds a rise-then-fall triple, then
    golden-section refinement narrows the dB interval to peak_tol_db.
    """
    if not to_db > from_db:
        raise ValueError(f"peak search needs from_db < to_db, got {from_db!r}..{to_db!r}")

    def F_at(pi_db: float) -> float:
        sol = eval_point(_config_for(users, db_to_linear(pi_db)), settings)
        return sol.gain_F

    scan = sweep_curve(users, from_db, to_db, settings.scan_step_db, settings)
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
    while hi - lo > settings.peak_tol_db:
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
    # The scan maximum is kept as a floor so the result can never dip below
    # its own bracket evidence.
    if scan[k].F > F_at(pi_star_db):
        pi_star_db = scan[k].pi_db
    pi_star = db_to_linear(pi_star_db)
    sol = eval_point(_config_for(users, pi_star), settings)
    return PeakResult(
        users=users,
        pi_star=pi_star,
        pi_star_db=pi_star_db,
        F_star=sol.gain_F,
        lambda_at_peak=sol.lambda_star,
        bracket_evidence=evidence,
    )
