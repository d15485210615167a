"""Scalar formulas for feedback gains on the Gaussian multiple-access channel.

Everything here is a pure function of its arguments, evaluated in double
precision with cancellation-safe logarithm kernels.  Capacities are in nats.
Powers are linear (dimensionless SNR); decibel values are 10*log10 of power.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

__all__ = [
    "ChannelConfig",
    "GainSolution",
    "linear_to_db",
    "db_to_linear",
    "log1p_over_x",
    "db_residual",
    "f_of",
    "massive_parametric",
]

# Below this, ln(1+x)/x is evaluated by series; the direct quotient is exact
# enough above it and the series truncation error is < 1e-32 below it.
_SERIES_CUTOFF = 1e-8

_FLOAT_MAX = sys.float_info.max


def linear_to_db(value: float) -> float:
    """10*log10 of a linear power ratio."""
    if not value > 0.0:
        raise ValueError(f"dB conversion needs a positive power, got {value!r}")
    return 10.0 * math.log10(value)


def db_to_linear(value_db: float) -> float:
    """Inverse of :func:`linear_to_db`; accepts any real dB value."""
    return 10.0 ** (value_db / 10.0)


def log1p_over_x(x: float) -> float:
    """ln(1+x)/x with the removable singularity at x=0 filled in.

    Switches to the alternating series 1 - x/2 + x^2/3 - x^3/4 for
    |x| < 1e-8, where the direct quotient would just amplify the rounding
    of log1p.  x = inf gives the limit 0.0; NaN is refused.
    """
    if not x > -1.0:
        raise ValueError(f"log1p_over_x needs x > -1, got {x!r}")
    if abs(x) < _SERIES_CUTOFF:
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    return math.log1p(x) / x if x < math.inf else 0.0


def _check_users(users: int) -> int:
    if isinstance(users, bool) or not isinstance(users, int):
        raise ValueError(f"user count must be an integer, got {users!r}")
    if users < 2:
        raise ValueError(f"need at least 2 users, got {users}")
    if users > _FLOAT_MAX:
        raise ValueError("user count is beyond float range (above 1.8e308)")
    return users


def _check_power(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite power, got {value!r}")
    return value


class _ChannelConfigFields(NamedTuple):
    users: int | None
    per_user_power: float | None = None
    total_power: float | None = None


class ChannelConfig(_ChannelConfigFields):
    """One operating point: user count plus the power that drives it.

    ``users`` is an integer K >= 2, or ``None`` for the massive limit
    (K -> infinity at fixed total power).  Finite configs are built from
    either per-user power P or total power pi = K*P, never both; the other
    is derived and both are stored.  Both must be positive finite floats,
    so a K*P that overflows or a pi/K that underflows is refused.  The
    massive limit only admits a total power.  ``_make`` and ``_replace``
    validate the same way; pickling and copying restore the stored fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        users: int | None,
        per_user_power: float | None = None,
        total_power: float | None = None,
    ) -> "ChannelConfig":
        # The common case, plain int K and float powers that pass, is
        # accepted by one test; the checks after it word every refusal.
        if users is None:
            if (per_user_power is None and total_power.__class__ is float
                    and 0.0 < total_power <= _FLOAT_MAX):
                return tuple.__new__(cls, (None, None, total_power))
            if per_user_power is not None:
                raise ValueError("the massive limit takes a total power only")
            if total_power is None:
                raise ValueError("the massive limit requires a total power")
            return tuple.__new__(cls, (None, None, _check_power(total_power, "total power")))
        if users.__class__ is int and 2 <= users <= _FLOAT_MAX:
            if total_power is None:
                if (per_user_power.__class__ is float and 0.0 < per_user_power
                        and (total := users * per_user_power) <= _FLOAT_MAX):
                    return tuple.__new__(cls, (users, per_user_power, total))
            elif (per_user_power is None and total_power.__class__ is float
                    and total_power <= _FLOAT_MAX and (per_user := total_power / users) > 0.0):
                return tuple.__new__(cls, (users, per_user, total_power))
        _check_users(users)
        if (per_user_power is None) == (total_power is None):
            raise ValueError("finite config needs exactly one of per-user or total power")
        if per_user_power is not None:
            per_user = _check_power(per_user_power, "per-user power")
            total = _check_power(users * per_user, "total power")
        else:
            total = _check_power(total_power, "total power")
            per_user = _check_power(total / users, "per-user power")
        return tuple.__new__(cls, (users, per_user, total))

    @classmethod
    def _make(cls, iterable) -> "ChannelConfig":
        return cls(*iterable)

    def __reduce__(self):
        # A finite config stores both powers, which __new__ refuses.
        return tuple.__new__, (type(self), tuple(self))

    @classmethod
    def finite(
        cls,
        users: int,
        *,
        per_user_power: float | None = None,
        total_power: float | None = None,
    ) -> "ChannelConfig":
        return cls(users, per_user_power, total_power)

    @classmethod
    def massive(cls, total_power: float) -> "ChannelConfig":
        return cls(None, None, total_power)

    @property
    def is_massive(self) -> bool:
        return self.users is None


class GainSolution(NamedTuple):
    """A solved operating point of the balance equation.

    ``residual`` is the solver's residual lam - G_K(pi*lam), for the
    fixed-point map of :func:`_fixed_point` with K = inf in the massive
    limit, at the point that certified the root: the point a last Newton
    step, shorter than LAMBDA_TOL/4, left for the root, or the probe past
    it; the root itself where safeguarded steps bracket it or it is the
    cap.  Evaluating the root after a Newton step would cost the
    evaluation the slope floor saves.  ``iterations`` counts the residual
    evaluations at the upper end, :func:`_lambda_bound`, two Newton steps
    of the massive residual above the root, and after it: all of them from
    1e-10 total power up, where r(1) < 0 is proven, unless r is not
    positive at that end.  ``degenerate`` marks a power too small for the
    residual to separate lam = 1 from the root: it is >= 0 already at lam =
    1, so the gain is pinned to 1 (0 iterations), with r(1) as residual.
    The capacities are ln(1+pi) without and ln(1+pi*lam) with feedback, in
    nats, and ``gain_F`` is their ratio.
    """

    config: ChannelConfig
    lambda_star: float
    residual: float
    iterations: int
    capacity_nofb: float
    capacity_fb: float
    gain_F: float
    degenerate: bool = False


def _balance(lam, K, P, log1p):
    """db_residual's formula, unvalidated; log1p is math.log1p or np.log1p for arrays."""
    boosted = P * lam * lam / (1.0 + (K - lam) * P * lam)
    return K * log1p(boosted) - log1p(K * P * lam)


def _fixed_point(K, pi, lam, log1p=math.log1p, expm1=math.expm1, log=math.log, inf=math.inf,
                 cutoff=_SERIES_CUTOFF, series=log1p_over_x):
    """(r, r') at lam for r = lam - G_K(pi*lam), unvalidated; K = inf is the massive limit.

    The K-th root of the balance equation at t = pi*lam solves it for lam:
    lam = G_K(t) = (1 + 1/t) * L * phi(L/K), with L = ln(1+t) and
    phi(z) = -expm1(-z)/z, which is 1 at z = 0 and so gives f_of at
    K = inf.  G_K is evaluated as (1+t) * log1p_over_x(t) * phi(L/K);
    where t overflows, 1 + 1/t rounds to 1 and L = ln(pi) + ln(lam).  The
    residual r is negative below the root and positive above it, with no
    pole on [1, K].  Its slope r' = 1 - (exp(-z) - G_K/(1+t))/lam needs no
    further transcendental: exp(-z) = 1 + expm1(-z), which is 1 at z = 0,
    and G_K/(1+t) is 0 where t overflows.  r' lies in (0, 1] on [1, inf);
    at lam = 1 and a large pi it is about ln(t)/t, which rounds to 0.
    Every root step runs it, so it reads no global, only its defaults.
    """
    t = pi * lam
    u = 1.0 + t
    if t < inf:
        L = log1p(t)
        G = u * (L / t if t >= cutoff else series(t))
    else:
        G = L = log(pi) + log(lam)
    z = L / K
    if z > 0.0:
        e = expm1(-z)
        G *= -e / z
        return lam - G, 1.0 - (1.0 + e - G / u) / lam
    return lam - G, 1.0 - (1.0 - G / u) / lam


def _fixed_point_many(K, pi, lam, work):
    """_fixed_point's (r, r') over numpy arrays, by the same operations in the same order.

    Every operation writes into work, an array of at least five rows of n
    elements that the caller owns, so a call allocates no array; r and r'
    are returned as views of its rows.  The operations run in the dtype of
    K, pi, lam and work, float64 or float32 alike: the Python floats among
    the operands keep float32 float32, under numpy 1.x's value-based
    casting and under NEP 50.  Below t = 1e-8 ln(1+t)/t is the plain
    quotient, not the series, and an overflowing t gives NaN, which
    verify's batch hands to the scalar solver.  Call it with numpy's
    floating-point warnings silenced.
    """
    import numpy as np

    # Rows: a holds t, L/t, then G; b 1 + t, then G/(1 + t); c L, e, then r';
    # d -z, -e/z, then r; row 4 the mask z > 0, as bools.
    a, b, c, d = work[:4]
    positive = work[4].view(bool)[:a.size]
    t = np.multiply(pi, lam, out=a)
    u = np.add(1.0, t, out=b)
    L = np.log1p(t, out=c)
    np.divide(L, t, out=a)
    minus_z = np.negative(np.divide(L, K, out=d), out=d)
    e = np.expm1(minus_z, out=c)  # -0.0 at z = 0, so 1 + e is exactly 1 there
    np.less(minus_z, 0.0, out=positive)
    G = np.multiply(u, a, out=a)
    np.multiply(G, np.divide(e, minus_z, out=d), out=G, where=positive)  # e/(-z) is -e/z
    r = np.subtract(lam, G, out=d)
    np.divide(G, u, out=b)
    np.subtract(np.add(1.0, e, out=c), b, out=c)
    return r, np.subtract(1.0, np.divide(c, lam, out=c), out=c)


def _lambda_bound(pi: float, a: float, log1p=math.log1p) -> float:
    """A float above the power gain at total power pi, for every K; unvalidated.

    a is ln(1+pi).  G_K(t) <= (1 + 1/t)*ln(1+t) < 1 + ln(1+t) and ln(1 +
    pi*lam) <= a + ln(lam), so lam - G_K(pi*lam) > 1 - ln(2) at every lam
    >= 2 + 2a, where verify's batch starts.  Two Newton steps on the
    massive residual g(x) = x - m(x), m(x) = (1 + 1/t)*L, t = pi*x and L =
    ln(1+t), refine 2 + 2a: m'(x) = (1 - L/t)/x needs no further
    transcendental, and the Newton point of x is N = x*(L - 1 + 2L/t)/(x -
    1 + L/t).  m is concave: h(t) = (1 + 1/t)*ln(1+t) has t**3*h''(t) = 2L
    - t - t/(1+t), which is 0 at t = 0 and falls with slope -(t/(1+t))**2.
    So g is convex, g(N) >= 0 by its tangent at x, and N >= lam_inf >=
    lam_K, since m >= 1 keeps g < 0 below lam_inf.  L is taken as a +
    ln(1 + pi/(1+pi)*(x-1)), and L/t is 0 where t overflows, so no step
    overflows or divides by zero.  In floats, with log1p within 4 ulps,
    the computed N is within 76 units of roundoff u = 2**-53 of the exact N
    of the float it starts from: L/t <= 1, q = L - 1 + 2L/t >= 1 (L + 2L/t
    rises from 2 at t = 0) and L <= 2q, and every other sum adds terms of
    one sign.  So the end, N times 1 + 1e-14 (90u), lies above lam_inf;
    below pi = 2**-54 the steps give 1 exactly and the end is 1 + 1e-14,
    above the root 1 + pi/2.  After two steps it is within 6e-4 relative
    of lam_inf at every power, and 1.1e-14 below -30 dB.  Every solve takes
    the two steps, so they are written out, with log1p bound as a default.
    """
    s = pi / (1.0 + pi)
    x = a + 1.0
    x += x
    d = x - 1.0
    L = log1p(s * d) + a
    w = L / (pi * x)
    x *= (L + (w + w - 1.0)) / (d + w)
    d = x - 1.0
    L = log1p(s * d) + a
    w = L / (pi * x)
    x *= (L + (w + w - 1.0)) / (d + w)
    return x * (1.0 + 1e-14)


# A bound E on |r - r_exact| near a root, in ulps of lam, for _fixed_point's
# float residual and _fixed_point_many's.  At most 2.92 were measured at 60
# digits within 16 ulps of every root of tests/test_oracle.py's walk; the
# margin also covers the rounding of the floor, of the acceptance test and
# of the accepted Newton point.
_RESIDUAL_ULPS = 4.0


def _slope_floor(pi: float, hi: float) -> float:
    """A floor m on the residual's slope r' on [G_2(pi), hi], hi above the root; unvalidated.

    m = (u - 1)/(2u) + 1/(1 + pi*hi), u = sqrt(1+pi).  G_K rises in t and
    in K, so every root lam = G_K(pi*lam) >= G_K(pi) >= G_2(pi) = 2u/(1+u),
    and 1 - 1/G_2(pi) = (u - 1)/(2u).  With z = ln(1+t)/K, r'(y) = 1 -
    (exp(-z) - G_K(t)/(1+t))/y at t = pi*y.  r is convex, G_K being concave
    in t, so on [G_2(pi), hi] r' is least at G_2(pi), which lies below the
    root: there G_K(t) >= y, and exp(-z) <= 1, so r' >= 1 - 1/y + 1/(1+t)
    >= m.  Hence |y - root| <= |r(y)|/m for every y in [G_2(pi), hi]; an
    iterate an ulp below G_2(pi), which only a root within an ulp of it
    allows (pi -> 0), has r' >= m - ulp.  m lies in (0, 1], and the float m
    is within a few ulps of it, which _RESIDUAL_ULPS's margin absorbs.
    """
    u = math.sqrt(1.0 + pi)
    return (u - 1.0) / (u + u) + 1.0 / (1.0 + pi * hi)


def _slope_floor_many(pi, hi, work):
    """_slope_floor over numpy arrays, by the same operations; writes rows 0 and 1 of work.

    Returns row 0, bit for bit the scalar floor of each element.
    """
    import numpy as np

    m, u = work[:2]
    np.sqrt(np.add(1.0, pi, out=u), out=u)
    np.subtract(u, 1.0, out=m)
    np.divide(m, np.add(u, u, out=u), out=m)
    np.multiply(pi, hi, out=u)
    np.divide(1.0, np.add(1.0, u, out=u), out=u)
    return np.add(m, u, out=m)


def db_residual(lam: float, K: int, P: float) -> float:
    """Signed imbalance of the cooperation constraint at power gain lam.

    K*ln(1 + P*lam^2/(1+(K-lam)*P*lam)) - ln(1+K*P*lam) is negative below
    the balance root, zero at it, and positive above it on [1, K].  It is
    K*(K-1) times the per-user form
    ln(1+K*P*lam)/K - ln(1+(K-lam)*P*lam)/(K-1), whose two terms cancel at
    large K; this single-log form keeps its sign there.  It is the paper's
    form of the equation the solvers root through :func:`_fixed_point`, and
    verify scores it at their roots as an independent check.
    """
    K = _check_users(K)
    P = _check_power(P, "per-user power")
    if not 1.0 <= lam <= K:
        raise ValueError(f"power gain must lie in [1, {K}], got {lam!r}")
    return _balance(lam, K, P, math.log1p)


def f_of(pi: float, lam: float) -> float:
    """Fixed-point map of the massive-user limit, (1 + 1/(pi*lam)) * ln(1 + pi*lam).

    Its unique fixed point lam = f_of(pi, lam) with lam >= 1 is the massive
    power gain at total power pi.  NaN and infinite arguments are refused;
    a pi*lam that overflows gives NaN, the solver's overflow signal.
    """
    if not 0.0 < pi < math.inf:
        raise ValueError(f"total power must be positive and finite, got {pi!r}")
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"power gain must be >= 1 and finite, got {lam!r}")
    t = pi * lam
    return (1.0 + t) * log1p_over_x(t)


def massive_parametric(t: float) -> tuple[float, float]:
    """Closed-form point of the massive-user curve, parametrized by t = pi*lam.

    Returns (pi, lam) with lam = (1+t)*ln(1+t)/t and pi = t/lam; the map
    t -> pi is strictly increasing, so this parametrizes the whole curve.
    t = inf gives (nan, nan); invert_massive_parametric refuses a power whose
    t overflows before it calls this.
    """
    if not t > 0.0:
        raise ValueError(f"parameter must be > 0, got {t!r}")
    lam = (1.0 + t) * log1p_over_x(t)
    return t / lam, lam
