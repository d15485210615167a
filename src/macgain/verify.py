"""Executable verification of the inequality, limit, and shape claims.

Each check solves operating points and measures the slack of every
inequality it is responsible for (slack >= 0 means the claim holds).
Slacks below -1e-9 count as violations; the slop absorbs floating-point
noise on claims whose strict version only degenerates at analytic
boundaries (vanishing power).  Root-quality checks use zero slop because
their tolerances are already explicit.  All checks are pure and
deterministic under a fixed seed; failures are reported as data, never
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import db_to_linear, db_residual, dlambda_dpi_massive, f_of, gain_factor
from .solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_SETTINGS,
    DEFAULT_TO_DB,
    SolverSettings,
    _db_grid,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)

__all__ = [
    "NUMERIC_SLOP",
    "DERIVATIVE_GRID",
    "DEFAULT_USERS",
    "BoundReport",
    "SampleSpec",
    "draw_samples",
    "point_bound_slacks",
    "check_tail_bounds",
    "check_derivative",
    "check_monotone_unimodal",
    "run_suite",
    "suite_passed",
]

NUMERIC_SLOP = 1e-9

DERIVATIVE_GRID = (0.1, 0.5, 1.0, 5.38, 10.0, 100.0, 1000.0)

DEFAULT_USERS = (2, 3, 10, 100, None)

# Certified cap on the gain factor near both ends of the power axis.
TAIL_GAIN_CAP = 1.321

# Certified global cap on the gain factor over the sampled (K, P) box.
IMPROVED_GAIN_CAP = 1.5372


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one named check over some number of slack observations."""

    check_name: str
    samples: int
    violations: int
    worst_slack: float
    witness: str

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.check_name}: {status} samples={self.samples} "
            f"violations={self.violations} worst_slack={self.worst_slack:.6e} "
            f"witness[{self.witness}]"
        )


@dataclass(frozen=True)
class SampleSpec:
    """Random sampling plan: log-uniform user counts and per-user powers."""

    seed: int
    n_samples: int
    K_range: tuple[int, int] = (2, 10_000)
    P_range: tuple[float, float] = (1e-3, 1e3)

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples!r}")
        k_lo, k_hi = self.K_range
        if k_lo < 2 or k_hi < k_lo:
            raise ValueError(f"bad user-count range {self.K_range!r}")
        p_lo, p_hi = self.P_range
        if not (0.0 < p_lo <= p_hi):
            raise ValueError(f"bad power range {self.P_range!r}")


def draw_samples(spec: SampleSpec) -> list[tuple[int, float]]:
    """Draw (K, P) pairs, log-uniform in both coordinates.

    Both quantities span decades, so uniform-in-log is the only draw that
    exercises every scale.  The user count is drawn first, then the power,
    each as one vectorized pass, so a given seed always yields the same
    pairs.
    """
    rng = np.random.default_rng(spec.seed)
    k_lo, k_hi = spec.K_range
    p_lo, p_hi = spec.P_range
    ks = np.floor(
        np.exp(rng.uniform(math.log(k_lo), math.log(k_hi + 1), spec.n_samples))
    ).astype(int)
    ks = np.clip(ks, k_lo, k_hi)
    ps = np.exp(rng.uniform(math.log(p_lo), math.log(p_hi), spec.n_samples))
    return [(int(k), float(p)) for k, p in zip(ks, ps)]


class _Tracker:
    """Accumulates slack observations for one named check; min slack wins."""

    def __init__(self, check_name: str, slop: float = NUMERIC_SLOP) -> None:
        self.check_name = check_name
        self.slop = slop
        self.samples = 0
        self.violations = 0
        self.worst = math.inf
        self.witness = ""

    def add(self, slack: float, witness: str) -> None:
        self.samples += 1
        if slack < self.worst:
            self.worst = slack
            self.witness = witness
        if not slack >= -self.slop:
            self.violations += 1

    def report(self) -> BoundReport:
        worst = self.worst if self.samples else math.nan
        return BoundReport(
            self.check_name, self.samples, self.violations, worst, self.witness
        )


def point_bound_slacks(K: int, P: float, lam: float) -> list[tuple[str, float]]:
    """Slacks of the root-point inequality chains, evaluated at lam.

    The five links: a two-sided logarithm bracket around ln(1+pi*lam), a
    two-sided sandwich around the root itself, and the cap that keeps the
    bracket's upper end below K*lam/(K-lam) (defined only for lam < K).
    """
    pi = K * P
    t = pi * lam
    log_term = math.log1p(t)
    upper = pi * lam * lam / (1.0 + (K - lam) * P * lam)
    slacks = [
        ("log_bracket_lower", log_term - t * lam / (1.0 + t)),
        ("log_bracket_upper", upper - log_term),
        ("gain_floor", lam - K * log_term / (K + log_term)),
        ("fixed_point_ceiling", f_of(pi, lam) - lam),
    ]
    if lam < K:
        slacks.append(("bracket_cap", K * lam / (K - lam) - upper))
    return slacks


def check_tail_bounds(settings: SolverSettings = DEFAULT_SETTINGS) -> BoundReport:
    """Check the gain caps on both tails of the massive curve.

    Low tail (pi <= 0.1): F <= (1+pi)*lam <= (1+pi)/(1-pi) and F <= 11/9.
    High tail (pi >= 1000): lam dominates ln(1+pi*lam), F stays below the
    tight cap lam / (ln(e^a + lam - 1) - ln lam) with a = pi*lam^2/(1+pi*lam),
    and that cap stays below its loose closed form wherever lam > e.
    Both tails respect F <= 1.321.
    """
    tracker = _Tracker("tail_bounds")
    for pi_db in _db_grid(-60.0, -10.0, 2.5):
        pi = db_to_linear(pi_db)
        sol = solve_lambda_massive(pi, settings)
        lam, F = sol.lambda_star, sol.gain_F
        w = f"pi={pi:.6g}"
        tracker.add((1.0 + pi) * lam - F, f"small_power_linear_cap at {w}")
        tracker.add(
            (1.0 + pi) / (1.0 - pi) - (1.0 + pi) * lam,
            f"small_power_ratio_cap at {w}",
        )
        tracker.add(11.0 / 9.0 - F, f"small_power_11_9 at {w}")
        tracker.add(TAIL_GAIN_CAP - F, f"tail_cap at {w}")
    for pi_db in _db_grid(30.0, 60.0, 2.5):
        pi = db_to_linear(pi_db)
        sol = solve_lambda_massive(pi, settings)
        lam, F = sol.lambda_star, sol.gain_F
        w = f"pi={pi:.6g}"
        t = pi * lam
        tracker.add(lam - math.log1p(t), f"log_dominated at {w}")
        a = lam * t / (1.0 + t)
        # ln(e^a + lam - 1) evaluated as a + log1p((lam-1)*e^-a) so the huge
        # exponential never materializes.
        tight = lam / (a + math.log1p((lam - 1.0) * math.exp(-a)) - math.log(lam))
        tracker.add(tight - F, f"large_power_tight_cap at {w}")
        if lam > math.e:
            loose = 1.0 / (t / (1.0 + t) - math.log(lam) / lam)
            tracker.add(loose - tight, f"large_power_loose_vs_tight at {w}")
        tracker.add(TAIL_GAIN_CAP - F, f"tail_cap at {w}")
    return tracker.report()


def check_derivative(pi_grid: tuple[float, ...] = DERIVATIVE_GRID,
                     settings: SolverSettings = DEFAULT_SETTINGS) -> BoundReport:
    """Validate the analytic slope of the massive curve against central differences.

    The solver runs at a tightened lambda tolerance so the difference
    quotient at relative step 1e-6 is not dominated by root noise.
    """
    tracker = _Tracker("derivative_consistency")
    tight = replace(settings, lambda_tol=min(settings.lambda_tol, 1e-15))
    h = 1e-6
    for pi in pi_grid:
        lam = solve_lambda_massive(pi, tight).lambda_star
        analytic = dlambda_dpi_massive(pi, lam)
        w = f"pi={pi:.6g}"
        tracker.add(analytic, f"derivative_positive at {w}")
        lam_hi = solve_lambda_massive(pi * (1.0 + h), tight).lambda_star
        lam_lo = solve_lambda_massive(pi * (1.0 - h), tight).lambda_star
        fd = (lam_hi - lam_lo) / (2.0 * pi * h)
        rel_err = abs(fd - analytic) / abs(analytic)
        tracker.add(1e-5 - rel_err, f"derivative_fd_match at {w}")
    return tracker.report()


def check_monotone_unimodal(users_list: tuple[int | None, ...] = DEFAULT_USERS,
                            range_db: tuple[float, float] = (DEFAULT_FROM_DB, DEFAULT_TO_DB),
                            settings: SolverSettings = DEFAULT_SETTINGS,
                            step_db: float = 0.1) -> BoundReport:
    """Check curve shapes: lam monotone, F unimodal, bigger K dominates.

    Unimodality is scored by sign changes of consecutive F differences
    (zero differences carry no sign information): a clean curve rises,
    flips sign exactly once, and falls, and scores a slack of 0; each
    defect costs -1.  When the massive curve is included, its far-end
    limits are anchored too: F(0.001) <= 1.01 and F(1e6) <= 1.321.
    """
    tracker = _Tracker("curve_shape")
    from_db, to_db = range_db
    curves: dict[int | None, list] = {}
    for users in users_list:
        curve = sweep_curve(users, from_db, to_db, step_db, settings)
        curves[users] = curve
        label = "massive" if users is None else str(users)
        lam_steps = [b.lam - a.lam for a, b in zip(curve, curve[1:])]
        tracker.add(min(lam_steps), f"lambda_nondecreasing at K={label}")
        diffs = [b.F - a.F for a, b in zip(curve, curve[1:])]
        signs = [d > 0.0 for d in diffs if d != 0.0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if flips == 1 and signs[0] and not signs[-1]:
            defect = 0.0
        else:
            defect = float(max(flips - 1, 1))
        tracker.add(0.0 if defect == 0.0 else -defect, f"F_unimodal at K={label}")
        peak_F = max(p.F for p in curve)
        tracker.add(peak_F - curve[0].F, f"edge_below_peak_low at K={label}")
        tracker.add(peak_F - curve[-1].F, f"edge_below_peak_high at K={label}")

    ordered: list[int | None] = sorted(u for u in users_list if u is not None)
    if None in users_list:
        ordered.append(None)
    for smaller, bigger in zip(ordered, ordered[1:]):
        big_label = "massive" if bigger is None else str(bigger)
        worst = min(
            cb.lam - ca.lam for ca, cb in zip(curves[smaller], curves[bigger])
        )
        tracker.add(worst, f"cross_k_domination K={smaller} vs K={big_label}")

    if None in users_list:
        F_small = solve_lambda_massive(1e-3, settings).gain_F
        tracker.add(1.01 - F_small, "small_power_limit at pi=0.001")
        F_big = solve_lambda_massive(1e6, settings).gain_F
        tracker.add(TAIL_GAIN_CAP - F_big, "large_power_limit at pi=1e+06")
    return tracker.report()


def run_suite(sample: SampleSpec,
              settings: SolverSettings = DEFAULT_SETTINGS,
              sabotage: bool = False) -> list[BoundReport]:
    """Run every check once, sharing one solve per random sample.

    With sabotage=True every per-sample check is evaluated half a unit off
    the root (clamped into [1, K]); the residual gate must then flag every
    sample, so a passing sabotage run would expose a broken harness.
    Failures are returned as data, never raised.
    """
    point = _Tracker("point_bounds")
    quality = _Tracker("root_quality", slop=0.0)
    gains = _Tracker("global_gain_bounds")
    for K, P in draw_samples(sample):
        sol = solve_lambda_star(K, P, settings)
        lam = sol.lambda_star
        if sabotage:
            lam = min(lam + 0.5, float(K))
        w = f"K={K} P={P:.6g}"
        res = db_residual(lam, K, P, "raw")
        quality.add(settings.residual_tol - abs(res), f"residual_within_tol at {w}")
        quality.add(lam - 1.0, f"lambda_at_least_1 at {w}")
        quality.add(float(K) - lam, f"lambda_at_most_K at {w}")
        for name, slack in point_bound_slacks(K, P, lam):
            point.add(slack, f"{name} at {w}")
        F = gain_factor(K * P, lam)
        gains.add(F - 1.0, f"gain_at_least_1 at {w}")
        gains.add(2.0 - F, f"doubling_cap at {w}")
        gains.add(IMPROVED_GAIN_CAP - F, f"improved_cap at {w}")
    # Near-extremal witness: the massive curve close to its peak power.
    F = solve_lambda_massive(5.38, settings).gain_F
    gains.add(F - 1.53, "near_extremal_witness_floor at pi=5.38")
    gains.add(1.54 - F, "near_extremal_witness_cap at pi=5.38")

    large = _Tracker("sandwich_large_k")
    for K in (10**2, 10**4, 10**6, 10**8):
        sol = solve_lambda_star(K, 1.0, settings)
        w = f"K={K} P=1"
        for name, slack in point_bound_slacks(K, 1.0, sol.lambda_star):
            if name in ("gain_floor", "fixed_point_ceiling"):
                large.add(slack, f"{name} at {w}")

    return [
        point.report(),
        quality.report(),
        large.report(),
        check_tail_bounds(settings),
        check_derivative(settings=settings),
        check_monotone_unimodal(settings=settings),
        gains.report(),
    ]


def suite_passed(reports: list[BoundReport]) -> bool:
    return all(r.passed for r in reports)
