"""Root finding and curve exploration for feedback power gains.

Every power gain, for K users or in the massive limit (K = inf), is the
fixed point of one map, lam = G_K(pi*lam), the K-th root of the balance
equation solved for lam.  Its residual lam - G_K(pi*lam), core._fixed_point,
changes sign once on [1, K], with no pole at lam = K, and stays finite
where pi*lam overflows; its slope comes with it in closed form.  One
routine roots it on [1, min(K, bound)], with core._lambda_bound's end two
Newton steps of the massive residual above the root, by plain Newton
steps from that end, which stay above the root, the residual being
convex.  A root is accepted for a residual small against a proven slope
floor (core._slope_floor), else for a (-, +) pair that one probe closes;
only else is r(1) read, to pin a vanishing power's root to 1, take the
cap or hand _bisect the bracket.  So nothing about convergence relies on
numerical luck.  The parametric inversion is the massive solve
read through core.massive_parametric, with no root of its own.  Peak
search walks each curve in closed form on the dB of t = pi*lam, where
lam = G_K(t), and bisects F's negated slope there with three solves a
search, none of them per step.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import (
    ChannelConfig,
    GainSolution,
    _RESIDUAL_ULPS,
    _fixed_point,
    _lambda_bound,
    _slope_floor,
    db_to_linear,
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

# Every root, the peak's dB included, is bracketed to LAMBDA_TOL in MAX_ITER steps.
LAMBDA_TOL = 1e-12
MAX_ITER = 200

DEFAULT_FROM_DB = -10.0
DEFAULT_TO_DB = 30.0
# The default curve set, ascending with the massive limit last.
DEFAULT_USERS = (2, 3, 10, 100, None)

# Sweeps refuse larger grids before allocating them.  The finest grid in
# use holds 2001 points; a billion-point grid would exhaust memory.
MAX_GRID_POINTS = 20_000

# Peak search clips t = pi*lam this far below the dB of the largest float,
# which itself rounds to a power that overflows.
_T_DB_MAX = linear_to_db(sys.float_info.max) - 1e-9


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

    bracket_evidence is the final bracket of the search's bisection, two
    (pi_db, g) pairs where g, the normalised negated slope of F, is
    negative at the first (F still rising) and not negative at the second
    (F not rising); pi_star_db is the one with the smaller |g|.  The search
    runs on the dB of t = pi*lam, and d(pi_db)/d(t_db) = r' <= 1, so it is
    at most LAMBDA_TOL wide.
    """

    users: int | None
    pi_star: float
    pi_star_db: float
    F_star: float
    lambda_at_peak: float
    bracket_evidence: tuple[tuple[float, float], tuple[float, float]]


def _bisect(fn, lo: float, hi: float, f_lo: float, f_hi: float,
            tol: float, max_iter: int) -> tuple[float, float, int]:
    """Narrow [lo, hi] given f_lo = fn(lo) < 0 <= fn(hi) = f_hi by bisection.

    Each step halves the bracket, its upper end taking every f >= 0, so a
    root takes ceil(log2(width/tol)) steps.  Stops when the bracket is at
    most tol wide or when no float lies strictly between its ends.  A NaN
    residual carries no sign, and max_iter steps that leave a wider bracket
    certify nothing; both raise ConvergenceError.  Returns (x, fn(x),
    iterations) at the end of the final bracket with the smaller |fn|.
    """
    iterations = 0
    while hi - lo > tol:
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        if iterations == max_iter:
            raise ConvergenceError(
                f"bracket [{lo!r}, {hi!r}] is wider than {tol!r} after "
                f"{max_iter} iterations"
            )
        f_x = fn(x)
        iterations += 1
        if f_x < 0.0:
            lo, f_lo = x, f_x
        elif f_x >= 0.0:
            hi, f_hi = x, f_x
        else:
            raise ConvergenceError(f"residual is NaN at lam={x!r}")
    return (lo, f_lo, iterations) if -f_lo <= f_hi else (hi, f_hi, iterations)


def _solve(config: ChannelConfig) -> GainSolution:
    """Root of core._fixed_point's residual r for config on [1, hi].

    hi = min(K, core._lambda_bound) with K = inf in the massive limit, an
    end within 6e-4 relative above the massive root but never below 1 +
    2*LAMBDA_TOL.  From hi, plain Newton steps x = w - r(w)/r'(w) follow
    while r'(w) > 0 and x stays in (1, hi), at most MAX_ITER evaluations
    in all; r is convex, so they stay above the root but for rounding, and
    a step from an end where r(hi) <= 0 leaves (1, hi) at once.  Once a
    step is shorter than LAMBDA_TOL/4, x is returned unevaluated if (|r(w)|
    + E)/m + |step| <= LAMBDA_TOL, with E = core._RESIDUAL_ULPS ulps of w,
    a bound on r's float error, and m = core._slope_floor(pi, hi): |w -
    root| <= (|r(w)| + E)/m.  Where E/m alone comes near LAMBDA_TOL, from
    lam = 512 (about 2200 dB) up, one probe LAMBDA_TOL/4 past x, across
    the root from w, keeps x if it reads r(w)'s opposite sign inside [1,
    K]; where it reads no such sign, an exact 0 among them, the probe is
    the root if (|r(probe)| + E)/m <= LAMBDA_TOL, E at the probe.  The
    floor holds there: G_K rises in t, so r' <= 1 and |r(w)| <= |step| <
    LAMBDA_TOL/4, and m > 0.35 at every power (0.3595 near 6.85 dB), so
    the floor fails at w only where E/m > (3/4 - 1/(4m))*LAMBDA_TOL, E >
    0.012*LAMBDA_TOL, at w >= 16, far above G_2(pi) < 2.  All rest on the
    analytic root, so none reads r(1).  Only where the probe settles
    nothing, a step leaves (1, hi), a slope is not positive or MAX_ITER
    evaluations pass is r(1) read, once.  If 0 <= r(1) < r(hi),
    the power is too small for r to separate lam = 1 from the root, which
    is pinned to 1 as degenerate, with 0 iterations.  If r(1) < 0 and r(hi)
    <= 0 at hi = K, the root lies closer to the cap than r can resolve, and
    the cap is taken.  Otherwise _bisect brackets the root on [1, hi], from
    scratch, in at most 50 steps, hi staying below 717 on the accepted
    range.  The residual returned is r where the root was certified: at w,
    the probe or _bisect's root.  No closure is built but the lambda of r
    that the fallback hands _bisect.  ln(1+pi) is taken once, for the end
    and the capacity without feedback, and the result is built by
    tuple.__new__, as ChannelConfig is.  A NaN or _bisect's MAX_ITER steps
    raise ConvergenceError, any other sign pattern, r(hi) <= 0 below the
    cap included, BracketError; every message ends with the point.
    """
    K, P, pi = config
    cap = math.inf if K is None else float(K)
    capacity_nofb = math.log1p(pi)
    bound = _lambda_bound(pi, capacity_nofb)
    if bound < 1.0 + 2.0 * LAMBDA_TOL:
        # [1, bound] would pass for converged before a step, and _bisect
        # would return an end of it, 1 or bound, not a point near the root.
        bound = 1.0 + 2.0 * LAMBDA_TOL
    hi = cap if cap < bound else bound
    f_hi, d_hi = _fixed_point(cap, pi, hi)
    # Plain Newton steps from hi, which stay above the root, r being
    # convex; lam stays None where they settle nothing.
    quarter, lam, degenerate = 0.25 * LAMBDA_TOL, None, False
    w, res, d, iters = hi, f_hi, d_hi, 1
    while d > 0.0:
        step = res / d
        x = w - step
        if not 1.0 < x < hi:
            break
        if -quarter < step < quarter:
            m = _slope_floor(pi, hi)
            if (abs(res) + _RESIDUAL_ULPS * math.ulp(w)) / m + abs(step) <= LAMBDA_TOL:
                lam = x
            else:  # a probe past x, across the root from w
                probe = x - quarter if step > 0.0 else x + quarter
                f_probe = _fixed_point(cap, pi, probe)[0]
                iters += 1
                if 1.0 <= probe <= cap:
                    if f_probe < 0.0 < step or step < 0.0 < f_probe:
                        lam, res = x, f_probe
                    elif (abs(f_probe) + _RESIDUAL_ULPS * math.ulp(probe)) / m <= LAMBDA_TOL:
                        lam, res = probe, f_probe
            break
        if iters == MAX_ITER:
            break
        w = x
        res, d = _fixed_point(cap, pi, w)
        iters += 1
    if lam is None:
        f_lo = _fixed_point(cap, pi, 1.0)[0]
        degenerate = 0.0 <= f_lo < f_hi
        if degenerate:
            lam, res, iters = 1.0, f_lo, 0
        elif f_lo < 0.0 and f_hi <= 0.0 and hi == cap:
            lam, res, iters = cap, f_hi, 1
        else:
            try:
                if not f_lo <= 0.0 < f_hi:
                    if math.isnan(f_hi):  # pi*hi overflows inside r; pi*1 cannot
                        raise ConvergenceError(f"residual is NaN at lam={hi!r}")
                    raise BracketError(
                        f"residual must change sign from - to + on [1.0, {hi!r}]; "
                        f"got ({f_lo!r}, {f_hi!r})"
                    )
                lam, res, steps = _bisect(lambda lam: _fixed_point(cap, pi, lam)[0], 1.0, hi,
                                          f_lo, f_hi, LAMBDA_TOL, MAX_ITER)
                iters += steps
            except (BracketError, ConvergenceError) as err:
                where = f"pi={pi!r}" if K is None else f"K={K}, P={P!r}"
                raise type(err)(f"{err} for {where}") from None
    t = pi * lam
    # Split like the residual where pi*lam overflows.
    capacity_fb = math.log1p(t) if t < math.inf else math.log(pi) + math.log(lam)
    return tuple.__new__(GainSolution, (config, lam, res, iters, capacity_nofb, capacity_fb,
                                        capacity_fb / capacity_nofb, degenerate))


def solve_lambda_star(K: int, P: float) -> GainSolution:
    """Solve the balance equation for K users at per-user power P.

    Returns the unique root in [1, K] of the balance equation, the fixed
    point of core._fixed_point's map at K, with the capacities and gain
    factor filled in.
    """
    return _solve(ChannelConfig(K, P))


def solve_lambda_massive(pi: float) -> GainSolution:
    """Solve lam = f_of(pi, lam), the K = inf fixed point, at total power pi."""
    return _solve(ChannelConfig(None, None, pi))


def invert_massive_parametric(pi: float) -> tuple[float, float]:
    """Point of the closed-form curve parametrization at total power pi.

    Returns (t, lam) with massive_parametric(t) = (pi, lam): t = pi*lam for
    the power gain lam of solve_lambda_massive, and lam as
    massive_parametric gives it at t.  The parametric curve is the massive
    fixed point parametrized by t, so its inversion at pi is that solve,
    whose ValueError it raises for a power that is not positive and finite.
    A power whose t overflows (above about 3054.04 dB) raises ValueError.
    """
    sol = solve_lambda_massive(pi)
    pi = sol.config.total_power
    t = pi * sol.lambda_star
    if t == math.inf:
        raise ValueError(
            f"total power {pi!r} is beyond the parametric inversion: "
            f"t = pi*lam overflows at its root"
        )
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
    single point at from_db.  Each point is built by tuple.__new__, as
    _solve builds its GainSolution.
    """
    points: list[CurvePoint] = []
    for pi_db in db_grid(from_db, to_db, step_db):
        pi = db_to_linear(pi_db)
        sol = eval_point(ChannelConfig(users, total_power=pi))
        lam = sol.lambda_star
        points.append(tuple.__new__(CurvePoint, (pi_db, pi, users, lam, linear_to_db(lam),
                                                 sol.gain_F)))
    return points


def find_peak(users: int | None, from_db: float = DEFAULT_FROM_DB,
              to_db: float = DEFAULT_TO_DB) -> PeakResult:
    """Locate the maximum of F along one curve inside [from_db, to_db].

    F rises while g = 1 - (lam + pi*lam') * (ln(1+pi)/ln(1+pi*lam)) *
    ((1+pi)/(1+pi*lam)) is negative and falls while it is positive: g is
    -dF/dpi scaled to O(1).  The search walks the curve on the dB axis of
    t = pi*lam, where it is explicit: _fixed_point(K, t, 1.0) reads (r, d) =
    (1 - G_K(t), 1 - t*G_K'(t)), so lam = 1 - r, pi = t/lam, the
    residual's slope there is r' = (d - r)/lam, and lam + pi*lam' = lam/r'.
    Solves at from_db and to_db give the ends in t, clipped below the
    largest float, and _bisect brackets g's root to LAMBDA_TOL with no
    further solve, in ceil(log2((t_hi - t_lo)/LAMBDA_TOL)) steps, 46 on the
    default range.  Each probe moves one end of its bracket, so the last
    (pi_db, g) probed with g < 0 and with g >= 0 are the final bracket, the
    evidence; pi_star_db is the end _bisect returned, and the solve at its
    pi gives F* and lam.  Where lam - 1 <= LAMBDA_TOL F is flat at 1 to the
    solve, so g counts as negative there.
    Raises NoPeakError unless g is negative at from_db and positive at to_db.
    """
    if not to_db > from_db:
        raise ValueError(f"peak search needs from_db < to_db, got {from_db!r}..{to_db!r}")
    t_lo, t_hi = [min(linear_to_db(sol.config.total_power * sol.lambda_star), _T_DB_MAX)
                  for sol in (eval_point(ChannelConfig(users, total_power=db_to_linear(pi_db)))
                              for pi_db in (from_db, to_db))]
    cap = math.inf if users is None else float(users)
    ends: dict[bool, tuple[float, float]] = {}  # the last (pi_db, g) each side of 0

    def descent(t_db: float) -> float:
        t = db_to_linear(t_db)
        r, d = _fixed_point(cap, t, 1.0)
        lam = 1.0 - r
        pi = t / lam
        if lam - 1.0 <= LAMBDA_TOL:
            g = -1.0
        else:
            g = 1.0 - ((lam * lam / (d - r)) * (math.log1p(pi) / math.log1p(t))
                       * ((1.0 + pi) / (1.0 + t)))
        ends[g >= 0.0] = (linear_to_db(pi), g)
        return g

    g_lo, g_hi = descent(t_lo), descent(t_hi)
    if not g_lo < 0.0 < g_hi:
        raise NoPeakError(
            f"F has no interior maximum in [{from_db!r}, {to_db!r}] dB; "
            f"widen the range"
        )
    _, g_star, _ = _bisect(descent, t_lo, t_hi, g_lo, g_hi, LAMBDA_TOL, MAX_ITER)
    pi_star_db = ends[g_star >= 0.0][0]
    sol = eval_point(ChannelConfig(users, total_power=db_to_linear(pi_star_db)))
    return PeakResult(users, sol.config.total_power, pi_star_db, sol.gain_F,
                      sol.lambda_star, (ends[False], ends[True]))
