"""Scalar formulas for feedback gains on the Gaussian multiple-access channel.

Everything here is a pure function of its arguments, evaluated in double
precision with cancellation-safe logarithm kernels.  Capacities are in nats.
Powers are linear (dimensionless SNR); decibel values are 10*log10 of power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ChannelConfig",
    "GainSolution",
    "linear_to_db",
    "db_to_linear",
    "log1p_over_x",
    "db_residual",
    "f_of",
    "dlambda_dpi_massive",
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
    of log1p.
    """
    if x <= -1.0:
        raise ValueError(f"log1p_over_x needs x > -1, got {x!r}")
    if abs(x) < _SERIES_CUTOFF:
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    return math.log1p(x) / x


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


@dataclass(frozen=True)
class ChannelConfig:
    """One operating point: user count plus the power that drives it.

    ``users`` is an integer K >= 2, or ``None`` for the massive limit
    (K -> infinity at fixed total power).  Finite configs are built from
    either per-user power P or total power pi = K*P, never both; the other
    is derived and both are stored.  Both must be positive finite floats,
    so a K*P that overflows or a pi/K that underflows is refused.  The
    massive limit only admits a total power.
    """

    users: int | None
    per_user_power: float | None = None
    total_power: float | None = None

    def __post_init__(self) -> None:
        if self.users is None:
            if self.per_user_power is not None:
                raise ValueError("the massive limit takes a total power only")
            if self.total_power is None:
                raise ValueError("the massive limit requires a total power")
            object.__setattr__(
                self, "total_power", _check_power(self.total_power, "total power")
            )
            return
        _check_users(self.users)
        if (self.per_user_power is None) == (self.total_power is None):
            raise ValueError("finite config needs exactly one of per-user or total power")
        if self.per_user_power is not None:
            per_user = _check_power(self.per_user_power, "per-user power")
            total = _check_power(self.users * per_user, "total power")
        else:
            total = _check_power(self.total_power, "total power")
            per_user = _check_power(total / self.users, "per-user power")
        object.__setattr__(self, "per_user_power", per_user)
        object.__setattr__(self, "total_power", total)

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


@dataclass(frozen=True)
class GainSolution:
    """A solved operating point of the balance equation.

    ``residual`` is the solver's residual at the returned root: for finite K
    the balanced form of :func:`db_residual`, K*(K-1) times the per-user
    one, and for the massive limit lam - f_of(pi, lam).  ``degenerate``
    marks a power too small for the residual to separate lam = 1 from the
    root: it is >= 0 already at lam = 1, so the gain is pinned to 1.  The
    capacities are ln(1+pi) without and ln(1+pi*lam) with feedback, in
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


def db_residual(lam: float, K: int, P: float) -> float:
    """Signed imbalance of the cooperation constraint at power gain lam.

    K*ln(1 + P*lam^2/(1+(K-lam)*P*lam)) - ln(1+K*P*lam) is negative below
    the balance root, zero at it, and positive above it on [1, K].  It is
    K*(K-1) times the per-user form
    ln(1+K*P*lam)/K - ln(1+(K-lam)*P*lam)/(K-1), whose two terms cancel at
    large K; this single-log form keeps its sign there.
    """
    K = _check_users(K)
    P = _check_power(P, "per-user power")
    if not 1.0 <= lam <= K:
        raise ValueError(f"power gain must lie in [1, {K}], got {lam!r}")
    boosted = P * lam * lam / (1.0 + (K - lam) * P * lam)
    return K * math.log1p(boosted) - math.log1p(K * P * lam)


def f_of(pi: float, lam: float) -> float:
    """Fixed-point map of the massive-user limit, (1 + 1/(pi*lam)) * ln(1 + pi*lam).

    Its unique fixed point lam = f_of(pi, lam) with lam >= 1 is the massive
    power gain at total power pi.
    """
    if pi <= 0.0:
        raise ValueError(f"total power must be > 0, got {pi!r}")
    if lam < 1.0:
        raise ValueError(f"power gain must be >= 1, got {lam!r}")
    t = pi * lam
    return (1.0 + t) * log1p_over_x(t)


def dlambda_dpi_massive(pi: float, lam: float) -> float:
    """Slope of the massive power gain along its curve, by implicit differentiation.

    Only meaningful when (pi, lam) satisfies the massive fixed-point
    equation; strictly positive there.  A non-positive denominator cannot
    occur on the curve and signals an off-curve call.
    """
    if pi <= 0.0:
        raise ValueError(f"total power must be > 0, got {pi!r}")
    denom = pi * lam * (lam - 1.0) + 2.0 * lam - 1.0
    if denom <= 0.0:
        raise ValueError(
            f"denominator {denom!r} <= 0: (pi={pi!r}, lam={lam!r}) is off the curve"
        )
    return (lam / pi) * (((pi - 1.0) * lam + 1.0) / denom)


def massive_parametric(t: float) -> tuple[float, float]:
    """Closed-form point of the massive-user curve, parametrized by t = pi*lam.

    Returns (pi, lam) with lam = (1+t)*ln(1+t)/t and pi = t/lam; the map
    t -> pi is strictly increasing, so this parametrizes the whole curve.
    """
    if t <= 0.0:
        raise ValueError(f"parameter must be > 0, got {t!r}")
    lam = (1.0 + t) * log1p_over_x(t)
    return t / lam, lam
