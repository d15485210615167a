"""Root finding and curve exploration for feedback power gains.

Every power gain, for K users or in the massive limit (K = inf), is the
fixed point of one map, lam = G_K(pi*lam), the K-th root of the balance
equation solved for lam.  Its residual lam - G_K(pi*lam), core._fixed_point,
changes sign once on [1, K], with no pole at lam = K, and stays finite
where pi*lam overflows.  One routine brackets it by doubling from [1, 2]
and narrows the bracket by ITP steps (interpolate, truncate, project),
which never take more than one step beyond bisection; a root is accepted
for its (-, +) bracket, never for a small residual, so nothing about
convergence relies on numerical luck.  Peak search runs the same routine
on the dB axis: the maximum of F is the (-, +) root of its negated slope,
which core.dlambda_dpi gives in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    ChannelConfig,
    GainSolution,
    _check_power,
    _fixed_point,
    db_to_linear,
    dlambda_dpi,
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
    "DEFAULT_FROM_DB",
    "DEFAULT_TO_DB",
    "DEFAULT_USERS",
    "MAX_GRID_POINTS",
    "db_grid",
    "solve_lambda_star",
    "solve_lambda_massive",
    "invert_massive_parametric",
    "eval_point",
    "sweep_curve",
    "find_peak",
]

# Every root, the peak's dB included, is bracketed to LAMBDA_TOL wide;
# MAX_ITER caps the bracket doublings and, separately, the ITP steps.
LAMBDA_TOL = 1e-12
MAX_ITER = 200

DEFAULT_FROM_DB = -10.0
DEFAULT_TO_DB = 30.0
# The default curve set, ascending with the massive limit last.
DEFAULT_USERS = (2, 3, 10, 100, None)

# Sweeps refuse larger grids before allocating them.  The finest grid in
# use holds 2001 points; a billion-point grid would exhaust memory.
MAX_GRID_POINTS = 20_000

# ITP root steps (Oliveira & Takahashi, "An Enhancement of the Bisection
# Method Average Performance Preserving Minmax Optimality", ACM TOMS 47(1),
# 2020) with kappa1 = _ITP_K1 / initial width, kappa2 = 2 and n0 = _ITP_N0:
# after any number of steps the bracket is at most 2**_ITP_N0 times as wide
# as bisection's, so no tol takes more than _ITP_N0 extra steps.
_ITP_K1 = 0.2
_ITP_N0 = 1


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
    """F's negated slope is not (-, +) at the ends of the range; widen the range."""


class CurvePoint(NamedTuple):
    """One swept sample of a gain curve; field order matches the CSV columns."""

    pi_db: float
    pi: float
    users: int | None
    lam: float
    lam_db: float
    F: float


class PeakResult(NamedTuple):
    """Located maximum of F along one curve.

    bracket_evidence is the final bracket of the search, two (pi_db, g)
    pairs where g, the normalised negated slope of F, is negative at the
    first (F still rising) and positive at the second (F falling).
    """

    users: int | None
    pi_star: float
    pi_star_db: float
    F_star: float
    lambda_at_peak: float
    bracket_evidence: tuple[tuple[float, float], tuple[float, float]]


def _bisect(fn, lo: float, hi: float, f_lo: float, f_hi: float,
            tol: float, max_iter: int) -> tuple[float, float, int]:
    """Narrow [lo, hi] given f(lo) < 0 < f(hi) by ITP steps.

    Each step takes the regula-falsi point of the bracket ends, moves it
    toward the midpoint by kappa1 * width**2 and projects it into the
    interval around the midpoint that keeps the bracket within budget:
    after step j at most 2**(_ITP_N0 - j) times the initial width.  It
    evaluates the midpoint instead if that point is not finite or not
    strictly inside the bracket.  Returns (x, fn(x), iterations) at the
    evaluated point with smallest |fn|.  Stops when the interval is
    narrower than tol or when no float fits strictly between the ends.  A
    NaN residual carries no sign, and max_iter steps that leave a wider
    bracket certify nothing; both raise ConvergenceError.
    """
    if abs(f_lo) <= abs(f_hi):
        best_x, best_f = lo, f_lo
    else:
        best_x, best_f = hi, f_hi
    k1 = _ITP_K1 / (hi - lo)
    budget = math.ldexp(hi - lo, _ITP_N0 - 1)
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
        # verify._bisect_many repeats these operations in this order.
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


def _root(fn, cap: float, where) -> tuple[float, float, int, bool]:
    """Root of fn on [1, cap], where fn is negative below it and positive above.

    Doubles the upper end from 2, never past cap >= 2, until fn turns
    positive, then narrows the bracket to LAMBDA_TOL by _bisect's ITP
    steps; the (-, +) bracket certifies the root.  Returns (lam, fn(lam),
    doublings plus ITP steps, degenerate).  If 0 <= fn(1) < fn(2), the power
    is too small for fn to separate lam = 1 from the root, which is pinned
    to 1 as degenerate.  If fn(1) < 0 and fn is still <= 0 at the cap, the
    cap is the root: every caller's root lies strictly below its cap, so it
    is closer to the cap than fn can resolve.  A NaN or MAX_ITER doublings
    raise ConvergenceError, any other sign pattern BracketError; every
    message ends with where(), formatted only on failure.
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
    if f_lo < 0.0 and f_hi <= 0.0 and hi == cap:
        return cap, f_hi, expansions, False
    if not f_lo <= 0.0 < f_hi:
        if math.isnan(f_lo) or math.isnan(f_hi):  # an overflow inside fn
            nan_at = lo if math.isnan(f_lo) else hi
            raise ConvergenceError(f"residual is NaN at lam={nan_at!r} for {where()}")
        raise BracketError(
            f"residual must change sign from - to + on [{lo!r}, {hi!r}]; "
            f"got ({f_lo!r}, {f_hi!r}) for {where()}"
        )
    try:
        lam, res, iters = _bisect(fn, lo, hi, f_lo, f_hi, LAMBDA_TOL, MAX_ITER)
    except ConvergenceError as err:
        raise ConvergenceError(f"{err} for {where()}") from None
    return lam, res, expansions + iters, False


def _solve(config: ChannelConfig) -> GainSolution:
    K, pi = config.users, config.total_power
    if K is None:
        cap, where = math.inf, lambda: f"pi={pi!r}"
    else:
        cap, where = float(K), lambda: f"K={K}, P={config.per_user_power!r}"
    lam, res, iters, degenerate = _root(_fixed_point(cap, pi), cap, where)
    capacity_nofb = math.log1p(pi)
    t = pi * lam
    # Split like the residual where pi*lam overflows.
    capacity_fb = math.log1p(t) if t < math.inf else math.log(pi) + math.log(lam)
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

    Returns the unique root in [1, K] of the balance equation, the fixed
    point of core._fixed_point's map at K, with the capacities and gain
    factor filled in.
    """
    return _solve(ChannelConfig.finite(K, per_user_power=P))


def solve_lambda_massive(pi: float) -> GainSolution:
    """Solve lam = f_of(pi, lam), the K = inf fixed point, at total power pi."""
    return _solve(ChannelConfig.massive(pi))


def invert_massive_parametric(pi: float) -> tuple[float, float]:
    """Invert the closed-form curve parametrization at total power pi.

    Finds t with massive_parametric(t) = (pi, lam) as the bracketed root
    of the strictly increasing map s -> pi(pi*s) - pi for s = t/pi >= 1;
    returns (t, lam).  This is an independent route to the same curve as
    solve_lambda_massive and is kept separate so the two can cross-check
    each other.
    """
    pi = _check_power(pi, "total power")  # as ChannelConfig.massive does

    def overshoot(s: float) -> float:
        return massive_parametric(pi * s)[0] - pi

    # pi(t) <= t, so the root sits at or above t = pi, that is s = 1.
    s, _, _, _ = _root(overshoot, math.inf, lambda: f"pi={pi!r}")
    t = pi * s
    return t, massive_parametric(t)[1]


def eval_point(config: ChannelConfig) -> GainSolution:
    """Solve whichever balance problem the config describes."""
    return _solve(config)


def db_grid(from_db: float, to_db: float, step_db: float) -> list[float]:
    """The ascending dB grid from_db..to_db, to_db last and no value twice.

    Raises ValueError, before building the grid, for a non-positive step,
    a reversed range or a NaN end, or a grid that would exceed
    MAX_GRID_POINTS points, the appended end point of a ragged range
    included.
    """
    if not step_db > 0.0:
        raise ValueError(f"step must be > 0 dB, got {step_db!r}")
    if not from_db <= to_db:
        raise ValueError(f"empty sweep range: from {from_db!r} to {to_db!r} dB")
    steps = (to_db - from_db) / step_db + 1e-9
    # A quotient past the cap, possibly inf, is refused without int().
    count = int(steps) if steps < MAX_GRID_POINTS else MAX_GRID_POINTS
    # The last whole step may end short of to_db, which is then appended.
    short = from_db + count * step_db < to_db - 1e-9 * max(1.0, abs(to_db))
    if count + 1 + short > MAX_GRID_POINTS:
        raise ValueError(
            f"a {step_db!r} dB step from {from_db!r} to {to_db!r} dB needs more "
            f"than {MAX_GRID_POINTS} grid points"
        )
    grid = [from_db + i * step_db for i in range(count + 1)]
    if short:
        grid.append(to_db)
    else:
        grid[-1] = to_db
    # A step below the float spacing at the ends repeats values.
    return list(dict.fromkeys(grid))


def sweep_curve(users: int | None, from_db: float, to_db: float,
                step_db: float) -> list[CurvePoint]:
    """Solve one curve on db_grid(from_db, to_db, step_db), ascending in pi_db.

    The final point is clamped to to_db; a zero-width range yields the
    single point at from_db.
    """
    points: list[CurvePoint] = []
    for pi_db in db_grid(from_db, to_db, step_db):
        pi = db_to_linear(pi_db)
        sol = eval_point(ChannelConfig(users, total_power=pi))
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

    F rises while g = 1 - (lam + pi*lam') * (ln(1+pi)/ln(1+pi*lam)) *
    ((1+pi)/(1+pi*lam)) is negative and falls while it is positive: g is
    -dF/dpi scaled to O(1).  The peak is g's (-, +) root on the dB axis,
    bracketed to LAMBDA_TOL by _bisect; the solve at the returned point
    gives F* and lam.  Where lam - 1 <= LAMBDA_TOL the solve cannot tell
    lam from 1 and F is flat at 1, so g counts as negative there.  Raises
    NoPeakError unless g is negative at from_db and positive at to_db.
    """
    if not to_db > from_db:
        raise ValueError(f"peak search needs from_db < to_db, got {from_db!r}..{to_db!r}")
    solved: dict[float, GainSolution] = {}
    ends: dict[bool, tuple[float, float]] = {}  # the last (pi_db, g) of each sign

    def descent(pi_db: float) -> float:
        sol = eval_point(ChannelConfig(users, total_power=db_to_linear(pi_db)))
        solved[pi_db] = sol
        pi, lam = sol.config.total_power, sol.lambda_star
        if lam - 1.0 <= LAMBDA_TOL:
            g = -1.0
        else:
            g = 1.0 - ((lam + pi * dlambda_dpi(users, pi, lam))
                       * (sol.capacity_nofb / sol.capacity_fb)
                       * ((1.0 + pi) / (1.0 + pi * lam)))
        if g != 0.0:
            ends[g > 0.0] = (pi_db, g)
        return g

    g_lo, g_hi = descent(from_db), descent(to_db)
    if not g_lo < 0.0 < g_hi:
        raise NoPeakError(
            f"F has no interior maximum in [{from_db!r}, {to_db!r}] dB; "
            f"widen the range"
        )
    pi_star_db, _, _ = _bisect(descent, from_db, to_db, g_lo, g_hi, LAMBDA_TOL, MAX_ITER)
    sol = solved[pi_star_db]
    return PeakResult(users, sol.config.total_power, pi_star_db, sol.gain_F,
                      sol.lambda_star, (ends[False], ends[True]))
