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
    "dlambda_dpi",
    "massive_parametric",
]

# Below this, ln(1+x)/x is evaluated by series; the direct quotient is exact
# enough above it and the series truncation error is < 1e-32 below it.
_SERIES_CUTOFF = 1e-8


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
    if users > sys.float_info.max:
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
        if users is None:
            if per_user_power is not None:
                raise ValueError("the massive limit takes a total power only")
            if total_power is None:
                raise ValueError("the massive limit requires a total power")
            return tuple.__new__(
                cls, (None, None, _check_power(total_power, "total power"))
            )
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

    ``residual`` is the solver's residual at the returned root,
    lam - G_K(pi*lam) for the fixed-point map of :func:`_fixed_point`,
    with K = inf in the massive limit.  ``degenerate`` marks a power too
    small for the residual to separate lam = 1 from the root: it is >= 0
    already at lam = 1, so the gain is pinned to 1.  The capacities are
    ln(1+pi) without and ln(1+pi*lam) with feedback, in nats, and
    ``gain_F`` is their ratio.
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


def _fixed_point(K: float, pi: float):
    """lam - G_K(pi*lam) as a function of lam, unvalidated; K = inf is the massive limit.

    The K-th root of the balance equation at t = pi*lam solves it for lam:
    lam = G_K(t) = (1 + 1/t) * L * phi(L/K), with L = ln(1+t) and
    phi(z) = -expm1(-z)/z, which is 1 at z = 0 and so gives f_of at
    K = inf.  G_K is evaluated as (1+t) * log1p_over_x(t) * phi(L/K);
    where t overflows, 1 + 1/t rounds to 1 and L = ln(pi) + ln(lam).  The
    residual is negative below the root and positive above it, with no
    pole on [1, K].
    """

    def residual(lam):
        t = pi * lam
        if t < math.inf:
            L = math.log1p(t)
            G = (1.0 + t) * (L / t if t >= _SERIES_CUTOFF else log1p_over_x(t))
        else:
            G = L = math.log(pi) + math.log(lam)
        z = L / K
        return lam - G * (-math.expm1(-z) / z) if z > 0.0 else lam - G

    return residual


def _fixed_point_many(K, pi, lam):
    """_fixed_point's residual over numpy arrays, by the same operations in the same order.

    Except: below t = 1e-8 ln(1+t)/t is the plain quotient, not the series,
    and an overflowing t gives NaN, which verify's batch hands to the
    scalar solver.  Call it with numpy's floating-point warnings silenced.
    """
    import numpy as np

    t = pi * lam
    L = np.log1p(t)
    z = L / K
    return lam - (1.0 + t) * (L / t) * np.where(z > 0.0, -np.expm1(-z) / z, 1.0)


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


def dlambda_dpi(users: int | None, pi: float, lam: float) -> float:
    """Slope dlam/dpi of the power gain along its curve, by implicit differentiation.

    With t = pi*lam, lam' = (b - lam) / (pi*(2 + t - b/lam)), where
    b = 1 + t - t*(lam/K) for K users, which is 1 + t in the massive limit
    (users None, K = inf); dividing lam out keeps every term finite while
    t is.  Only meaningful when (pi, lam) solves the balance equation at
    that K; strictly positive there.  pi must be a positive finite power.
    A denominator that is not positive, NaN included, cannot occur on the
    curve and signals an off-curve call.
    """
    pi = _check_power(pi, "total power")
    t = pi * lam
    b = 1.0 + t - t * (lam / (math.inf if users is None else users))
    denom = 2.0 + t - b / lam
    if not denom > 0.0:
        raise ValueError(
            f"denominator {denom!r} <= 0: (pi={pi!r}, lam={lam!r}) is off the curve"
        )
    return (b - lam) / denom / pi


def massive_parametric(t: float) -> tuple[float, float]:
    """Closed-form point of the massive-user curve, parametrized by t = pi*lam.

    Returns (pi, lam) with lam = (1+t)*ln(1+t)/t and pi = t/lam; the map
    t -> pi is strictly increasing, so this parametrizes the whole curve.
    t = inf gives (nan, nan), invert_massive_parametric's overflow signal.
    """
    if not t > 0.0:
        raise ValueError(f"parameter must be > 0, got {t!r}")
    lam = (1.0 + t) * log1p_over_x(t)
    return t / lam, lam
