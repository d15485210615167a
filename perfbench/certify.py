"""50-digit certificates for solved power gains.

A returned lambda is certified when the exact residual changes sign across
lambda*(1 - tol) .. lambda*(1 + tol), clamped to the root's domain.  Both
residuals below are negative below the root and positive above it, so a sign
change in that window proves the true root lies within a relative distance
tol of the returned value, whatever the solver did internally.
"""

from __future__ import annotations

from mpmath import mp, mpf

DIGITS = 50

# Relative window for full-precision lambdas; the CLI prints 9 significant
# digits by default, which this matches.
TOL = 1e-9

# A text lambda rounded to 9 significant digits may sit up to 5e-9 off in
# relative terms, so printed values are certified over this wider window.
TEXT_TOL = 1e-8


def _finite_residual(K: int, P: float, lam) -> "mpf":
    # Balanced single-log form of the balance equation; same sign as the raw
    # per-user form, and far better conditioned at large K.
    boosted = P * lam * lam / (1 + (K - lam) * P * lam)
    return K * mp.log1p(boosted) - mp.log1p(K * P * lam)


def _massive_slack(pi: float, lam) -> "mpf":
    t = pi * lam
    return lam - (1 + 1 / t) * mp.log1p(t)


def finite_certified(K: int, P: float, lam: float, tol: float = TOL) -> bool:
    """True when the K-user balance root lies within relative tol of lam."""
    if not 1.0 <= lam <= K:
        return False
    with mp.workdps(DIGITS):
        K_, P_, lam_ = mpf(K), mpf(P), mpf(lam)
        lo = max(mpf(1), lam_ * (1 - mpf(tol)))
        hi = min(K_, lam_ * (1 + mpf(tol)))
        return _finite_residual(K_, P_, lo) <= 0 <= _finite_residual(K_, P_, hi)


def massive_certified(pi: float, lam: float, tol: float = TOL) -> bool:
    """True when the massive-limit fixed point lies within relative tol of lam."""
    if not lam >= 1.0:
        return False
    with mp.workdps(DIGITS):
        pi_, lam_ = mpf(pi), mpf(lam)
        lo = max(mpf(1), lam_ * (1 - mpf(tol)))
        hi = lam_ * (1 + mpf(tol))
        return _massive_slack(pi_, lo) <= 0 <= _massive_slack(pi_, hi)


def _mp_bisect(residual, lo, hi):
    # residual(lo) <= 0 < residual(hi); 200 halvings leave far less than
    # one double-precision ulp of bracket.
    for _ in range(200):
        mid = (lo + hi) / 2
        if residual(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def controls_pass() -> bool:
    """The certificates accept reference roots and reject lambdas 1e-7 off them."""
    with mp.workdps(DIGITS):
        finite = float(_mp_bisect(lambda lam: _finite_residual(100, mpf(1), lam),
                                  mpf(1), mpf(100)))
        massive = float(_mp_bisect(lambda lam: _massive_slack(mpf(1000), lam),
                                   mpf(1), mpf(1000)))
    off = 1.0 + 1e-7
    return (finite_certified(100, 1.0, finite)
            and not finite_certified(100, 1.0, finite * off)
            and massive_certified(1000.0, massive)
            and not massive_certified(1000.0, massive * off))
