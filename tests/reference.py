"""The exact forms the tests compare against, each written once, in mpmath.

Every form works at precision(t): 60 digits plus as many as t = pi*x has
leading zeros, so that 1 + t keeps t, or the caller's precision if higher,
as inside mp.diff.  Float inputs enter exactly.
"""

from __future__ import annotations

import contextlib
import math

from mpmath import mp, mpf


@contextlib.contextmanager
def precision(t):
    """Work at 60 digits plus t's leading zeros, or at the caller's precision if higher."""
    with mp.workdps(max(mp.dps, 60 if t >= 1 else 60 - math.floor(math.log10(t)))):
        yield


def G(users, t):
    """G_K(t) = (1+t)*(L/t)*phi(L/K), users None massive, at the callers' precision(t)."""
    L = mp.log1p(t)
    value = (1 + t) * L / t
    if users is not None:
        z = L / users
        value *= -mp.expm1(-z) / z
    return value


def fixed_point(users, pi, x):
    """x - G_K(pi*x) at the float inputs, exactly enough to sign; users None massive."""
    with precision(mpf(pi) * x):
        return x - G(users, mpf(pi) * x)


def slope(users, pi, y):
    """r'(y) = 1 - (exp(-z) - G_K(t)/(1+t))/y at t = pi*y, z = ln(1+t)/K, as fixed_point."""
    with precision(mpf(pi) * y):
        t = mpf(pi) * y
        decay = 1 if users is None else mp.exp(-mp.log1p(t) / users)
        return 1 - (decay - G(users, t) / (1 + t)) / y


def brackets(users, pi, lam, delta):
    """True when fixed_point reads (-, +) at the floats lam - delta and lam + delta."""
    return fixed_point(users, pi, lam - delta) < 0 < fixed_point(users, pi, lam + delta)


def fixed_points_near(users, pi, lam, ys):
    """fixed_point at each float y of ys, rounded to a float; ys ascending, near lam.

    Every y lies within 16 ulps of lam.  One log1p and one expm1 serve
    them all, at fixed_point's precision for the first y, whose t has the
    most leading zeros.  With t0 = pi*lam, L0 = ln(1+t0) and eps =
    pi*(y - lam)/(1+t0), exactly ln(1 + pi*y) = L0 + log1p(eps); with z =
    L/K and dz = log1p(eps)/K, exactly expm1(-z) = E0 + (1+E0)*expm1(-dz),
    E0 = expm1(-L0/K).  Each increment is its quadratic Taylor polynomial.
    |eps| <= 16*2**-52*t0/(1+t0), under 3.6e-15 and 3.6e-15*L0, and |dz|
    <= 1.01*|eps|/K, so the truncations, at most |eps|**3/(3(1 - |eps|))
    and |dz|**3/6*e**|dz|, move L and expm1(-z) by under 2e-44 relative
    and r by under 1e-27 ulps of y.
    """
    with precision(mpf(pi) * ys[0]):
        pi_mp = mpf(pi)
        t0 = pi_mp * lam
        L0 = mp.log1p(t0)
        per_eps = pi_mp / (1 + t0)
        if users is not None:
            K = mpf(users)
            E0 = mp.expm1(-L0 / K)
        out = []
        for y in ys:
            eps = per_eps * (y - lam)  # y - lam is exact
            s = eps - eps * eps / 2
            L = L0 + s
            G = L + L / (pi_mp * y)
            if users is not None:
                dz = s / K
                G *= ((1 + E0) * (dz - dz * dz / 2) - E0) / (L / K)
            out.append(float(y - G))
        return out


def balance(users, pi, x):
    """The paper's balance residual K*ln(1 + P*x**2/(1 + (K - x)*P*x)) - ln(1 + pi*x), P = pi/K.

    It is negative on [1, root) and positive on (root, K]; users None is
    the massive limit, where it is fixed_point's.
    """
    if users is None:
        return fixed_point(None, pi, x)
    with precision(mpf(pi) * x):
        P, x = mp.fdiv(pi, users), mpf(x)
        return users * mp.log1p(P * x * x / (1 + (users - x) * P * x)) - mp.log1p(pi * x)


def balance_slope(users, pi, lam):
    """dlam/dpi along the balance curve, -(dB/dpi)/(dB/dlam), B = balance at total power pi."""
    with precision(pi):
        pi, lam = mpf(pi), mpf(lam)
        return (-mp.diff(lambda p: balance(users, p, lam), pi)
                / mp.diff(lambda x: balance(users, pi, x), lam))


def gain(pi, lam):
    """The capacity gain factor F = ln(1 + pi*lam)/ln(1 + pi)."""
    with precision(mpf(pi) * lam):
        return mp.log1p(pi * mpf(lam)) / mp.log1p(pi)


def root(users, pi):
    """The balance residual's root at total power pi, users None massive.

    Anderson-Bjorck steps on the one bracket [1, min(K, 2 + 2a)], a =
    ln(1+pi), at precision(pi), the bracket's lower end.  The residual is
    < 0 at 1 (ln is concave, G_inf > 1), > 0 at K and, by
    core._lambda_bound's docstring, at 2 + 2a, where x - G_K(pi*x) > 1 - ln 2.
    """
    with precision(pi):
        top = min(mp.inf if users is None else users, 2 + 2 * mp.log1p(pi))
        return mp.findroot(lambda x: balance(users, pi, x), (mpf(1), top), solver="anderson")


def finite_certified(K: int | None, P: float, lam: float, tol: float) -> bool:
    """True when the exact root lies within relative tol of lam, K None massive.

    The balance residual at the float inputs, P per user or, massive, in
    total, reads <= 0 at lam*(1 - tol) and >= 0 at lam*(1 + tol), both
    clamped to [1, K].  K*P is formed exactly, so balance's P is this P.
    """
    pi, cap = (P, mp.inf) if K is None else (mp.fmul(P, K, exact=True), K)
    with precision(mpf(pi) * lam):
        lam, tol = mpf(lam), mpf(tol)
        lo, hi = max(mpf(1), lam * (1 - tol)), min(cap, lam * (1 + tol))
        return 1 <= lam <= cap and balance(K, pi, lo) <= 0 <= balance(K, pi, hi)


def massive_certified(pi: float, lam: float, tol: float) -> bool:
    """The massive-limit twin of finite_certified, on x - G_inf(pi*x) over [1, inf)."""
    return finite_certified(None, pi, lam, tol)
