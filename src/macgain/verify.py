"""Executable verification of the inequality, limit, and shape claims.

Each check solves operating points and measures the slack of every
inequality it is responsible for (slack >= 0 means the claim holds).
Slacks below -1e-9 count as violations; the slop absorbs floating-point
noise on claims whose strict version only degenerates at analytic
boundaries (vanishing power).  Root-quality checks use zero slop because
their tolerances are already explicit.  All checks are pure and
deterministic under a fixed seed.  Check violations are reported as data;
a solver error (BracketError, ConvergenceError) propagates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import solvers
from .core import ChannelConfig, _balance, db_to_linear, dlambda_dpi
from .solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    DEFAULT_USERS,
    _db_grid,
    eval_point,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)

__all__ = [
    "NUMERIC_SLOP",
    "DERIVATIVE_GRID",
    "DERIVATIVE_USERS",
    "DERIVATIVE_STEP",
    "BoundReport",
    "MAX_SAMPLES",
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
# The curves check_derivative differentiates, the massive limit last.
DERIVATIVE_USERS = (2, 10, 10_000, None)
# Relative step of check_derivative's central differences.
DERIVATIVE_STEP = 1e-3

# The box run_suite samples: user counts and per-user powers, both ends in.
SAMPLE_USERS = (2, 10_000)
SAMPLE_POWERS = (1e-3, 1e3)

# Certified cap on the gain factor near both ends of the power axis.
TAIL_GAIN_CAP = 1.321

# Certified global cap on the gain factor over the sampled (K, P) box.
IMPROVED_GAIN_CAP = 1.5372

# Bound on the per-user residual at every sampled root (root_quality).
ROOT_RESIDUAL_TOL = 1e-10

# Larger sample plans are refused before drawing.  The largest plan in use
# holds 10000 samples; a billion-sample plan would exhaust memory.
MAX_SAMPLES = 100_000


class BoundReport(NamedTuple):
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


class _SampleSpecFields(NamedTuple):
    seed: int
    n_samples: int


class SampleSpec(_SampleSpecFields):
    """Random sampling plan: log-uniform user counts and per-user powers.

    ``_make`` and ``_replace`` validate the same way.
    """

    __slots__ = ()

    def __new__(cls, seed: int, n_samples: int) -> "SampleSpec":
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed!r}")
        if not 1 <= n_samples <= MAX_SAMPLES:
            raise ValueError(
                f"n_samples must be in [1, {MAX_SAMPLES}], got {n_samples!r}"
            )
        return tuple.__new__(cls, (seed, n_samples))

    @classmethod
    def _make(cls, iterable) -> "SampleSpec":
        return cls(*iterable)


def draw_samples(spec: SampleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw (K, P) pairs from the sample box, log-uniform in both coordinates.

    Both quantities span decades, so uniform-in-log is the only draw that
    exercises every scale.  The user count is drawn first, then the power,
    each as one vectorized pass into an int and a float array, so a given
    seed always yields the same pairs.
    """
    rng = np.random.default_rng(spec.seed)
    k_lo, k_hi = SAMPLE_USERS
    p_lo, p_hi = SAMPLE_POWERS
    ks = np.floor(
        np.exp(rng.uniform(math.log(k_lo), math.log(k_hi + 1), spec.n_samples))
    ).astype(int)
    ks = np.clip(ks, k_lo, k_hi)
    ps = np.exp(rng.uniform(math.log(p_lo), math.log(p_hi), spec.n_samples))
    return ks, ps


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

    def add_table(self, columns: list[tuple[str, np.ndarray]], label,
                  valid: np.ndarray | None = None) -> None:
        """add() a table of slacks: one row per sample, one column per link.

        Equivalent to calling add(slack, f"{name} at {label(row)}") row by
        row and column by column, skipping entries where valid is False,
        but only the winning witness is ever formatted.
        """
        table = np.column_stack([slack for _, slack in columns])
        if valid is None:
            valid = np.ones(table.shape, dtype=bool)
        self.samples += int(np.count_nonzero(valid))
        self.violations += int(np.count_nonzero(valid & ~(table >= -self.slop)))
        # A NaN never wins add()'s strict comparison, so it is never the
        # witness; argmin returns the first minimum in row-major order.
        ranked = np.where(valid & ~np.isnan(table), table, math.inf)
        first = int(np.argmin(ranked))
        if ranked.flat[first] < self.worst:
            row, col = divmod(first, table.shape[1])
            self.worst = float(ranked.flat[first])
            self.witness = f"{columns[col][0]} at {label(row)}"

    def report(self) -> BoundReport:
        worst = self.worst if self.samples else math.nan
        return BoundReport(
            self.check_name, self.samples, self.violations, worst, self.witness
        )


def point_bound_slacks(K: np.ndarray, P: np.ndarray,
                       lam: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Slacks of the root-point inequality chains at equal-length arrays.

    The five links, one array each: a two-sided logarithm bracket around
    ln(1+pi*lam), a two-sided sandwich around the root itself, and the cap
    that keeps the bracket's upper end below K*lam/(K-lam).  The cap is
    defined only for lam < K; callers drop its other entries.
    """
    with np.errstate(all="ignore"):
        pi = K * P
        t = pi * lam
        log_term = np.log1p(t)
        upper = pi * lam * lam / (1.0 + (K - lam) * P * lam)
        return [
            ("log_bracket_lower", log_term - t * lam / (1.0 + t)),
            ("log_bracket_upper", upper - log_term),
            ("gain_floor", lam - K * log_term / (K + log_term)),
            ("fixed_point_ceiling", _f_of_many(pi, lam) - lam),
            ("bracket_cap", K * lam / (K - lam) - upper),
        ]


def _f_of_many(pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """core.f_of over arrays.

    Every caller has pi*lam >= 1e-3, far above the 1e-8 where core.f_of
    switches to its series, so the quotient is all f_of would evaluate.
    """
    t = pi * lam
    return (1.0 + t) * (np.log1p(t) / t)


def _raw_residual_many(K: np.ndarray, P: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The per-user residual, 1/(K*(K-1)) times core.db_residual, over arrays."""
    return np.log1p(K * P * lam) / K - np.log1p((K - lam) * P * lam) / (K - 1.0)


def _bisect_many(fn, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
                 f_hi: np.ndarray, tol: float, max_iter: int):
    """solvers._bisect applied element by element to arrays of brackets.

    fn(x, i) gives the residuals of elements i at the points x.  Each
    element computes its ITP points with the scalar loop's operations in
    the scalar loop's order, stops by the same rules and keeps the same
    smallest-|fn| point, so it matches the scalar loop bit for bit wherever
    fn does.  Only the elements still running are evaluated.  An exact
    zero or a NaN residual stops an element at that point; the caller
    hands a NaN element to the scalar solver, which raises.  An element
    still running after max_iter steps reports max_iter iterations.
    Returns (x, fn(x), iterations).
    """
    take_lo = np.abs(f_lo) <= np.abs(f_hi)
    best_x = np.where(take_lo, lo, hi)
    best_f = np.where(take_lo, f_lo, f_hi)
    iterations = np.zeros(lo.size, dtype=int)
    # The running elements: their indices, brackets and ITP state.
    run = np.arange(lo.size)
    k1 = solvers._ITP_K1 / (hi - lo)
    budget = np.ldexp(hi - lo, solvers._ITP_N0 - 1)
    signed = np.ones(lo.size, dtype=bool)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        going = signed & (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not going.all():
            run, lo, hi, f_lo, f_hi, k1, budget, mid = (
                a[going] for a in (run, lo, hi, f_lo, f_hi, k1, budget, mid)
            )
            if not run.size:
                break
        width = hi - lo
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        d = mid - x_f
        delta = k1 * width * width
        x = np.where(delta <= np.abs(d), x_f + np.copysign(delta, d), mid)
        r = np.maximum(budget - 0.5 * width, 0.0)
        x = np.minimum(np.maximum(x, mid - r), mid + r)
        x = np.where((lo < x) & (x < hi), x, mid)
        budget = budget * 0.5
        f_x = fn(x, run)
        iterations[run] += 1
        below = f_x < 0.0
        above = f_x > 0.0
        signed = below | above
        keep = ~signed | (np.abs(f_x) < np.abs(best_f[run]))
        best_x[run[keep]] = x[keep]
        best_f[run[keep]] = f_x[keep]
        lo = np.where(below, x, lo)
        f_lo = np.where(below, f_x, f_lo)
        hi = np.where(above, x, hi)
        f_hi = np.where(above, f_x, f_hi)
    return best_x, best_f, iterations


def _root_many(fn, cap: np.ndarray, solve_one):
    """solvers._root over arrays: one doubling pass, then one _bisect_many.

    The tolerances are read off the solvers module at call time, so the
    batch and the scalar solver it hands off to always share them.

    fn(lam, i) gives the residuals of elements i at the points lam, and
    fn(lam) those of every element; each upper end doubles from 2, never
    past its cap, and _bisect_many evaluates only the elements it is still
    narrowing.  An element is settled here when fn(1) < 0, its doubled
    bracket is (-, +), no ITP step met a NaN and it took fewer than
    MAX_ITER steps.  Every other element goes, in input order, to the
    scalar solve_one(i), which pins it to lam = 1, solves it or raises its
    own error.  The ITP points depend on the residual values, so where
    np.log1p and math.log1p disagree in the last ulp the batch and the
    scalar solver may return roots a few ulps apart, both certified by
    their brackets, and the scalar solver may settle an element the batch
    could not.
    """
    with np.errstate(all="ignore"):
        lo = np.ones_like(cap)
        f_lo = fn(lo)
        hi = np.minimum(2.0, cap)
        f_hi = fn(hi)
        growing = np.flatnonzero((f_lo < 0.0) & (f_hi <= 0.0) & (hi < cap))
        expansions = 1
        while growing.size and expansions < solvers.MAX_ITER:
            lo[growing], f_lo[growing] = hi[growing], f_hi[growing]
            hi[growing] = np.minimum(2.0 * hi[growing], cap[growing])
            f_hi[growing] = fn(hi[growing], growing)
            expansions += 1
            growing = growing[(f_hi[growing] <= 0.0) & (hi[growing] < cap[growing])]
        lam, res, iterations = _bisect_many(
            fn, lo, hi, f_lo, f_hi, solvers.LAMBDA_TOL, solvers.MAX_ITER
        )
    settled = ((f_lo < 0.0) & (f_hi > 0.0) & ~np.isnan(res)
               & (iterations < solvers.MAX_ITER))
    for i in np.flatnonzero(~settled):
        lam[i] = solve_one(i).lambda_star
    return lam


def _solve_finite_many(K: np.ndarray, P: np.ndarray) -> np.ndarray:
    """solve_lambda_star's root for every (K, P) pair, in one batch of core._balance."""
    K = np.asarray(K, dtype=float)

    def residual(lam: np.ndarray, i=slice(None)) -> np.ndarray:
        return _balance(K[i], P[i], np.log1p)(lam)

    return _root_many(residual, K, lambda i: solve_lambda_star(int(K[i]), float(P[i])))


def _solve_massive_many(pi: np.ndarray) -> np.ndarray:
    """solve_lambda_massive's root for every total power pi, in one batch."""

    def slack(lam: np.ndarray, i=slice(None)) -> np.ndarray:
        return lam - _f_of_many(pi[i], lam)

    return _root_many(slack, np.full_like(pi, math.inf),
                      lambda i: solve_lambda_massive(float(pi[i])))


def check_tail_bounds() -> BoundReport:
    """Check the gain caps on both tails of the massive curve.

    Low tail (pi <= 0.1): F <= (1+pi)*lam <= (1+pi)/(1-pi) and F <= 11/9.
    High tail (pi >= 1000): lam dominates ln(1+pi*lam), F stays below the
    tight cap lam / (ln(e^a + lam - 1) - ln lam) with a = pi*lam^2/(1+pi*lam),
    and that cap stays below its loose closed form wherever lam > e.
    Both tails respect F <= 1.321.  Each tail is one massive sweep_curve
    at 2.5 dB steps, 34 powers in all.
    """
    tracker = _Tracker("tail_bounds")
    for pt in sweep_curve(None, -60.0, -10.0, 2.5):
        pi, lam, F = pt.pi, pt.lam, pt.F
        w = f"pi={pi:.6g}"
        tracker.add((1.0 + pi) * lam - F, f"small_power_linear_cap at {w}")
        tracker.add(
            (1.0 + pi) / (1.0 - pi) - (1.0 + pi) * lam,
            f"small_power_ratio_cap at {w}",
        )
        tracker.add(11.0 / 9.0 - F, f"small_power_11_9 at {w}")
        tracker.add(TAIL_GAIN_CAP - F, f"tail_cap at {w}")
    for pt in sweep_curve(None, 30.0, 60.0, 2.5):
        pi, lam, F = pt.pi, pt.lam, pt.F
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


def check_derivative() -> BoundReport:
    """Validate the analytic slope dlambda_dpi against central differences.

    On every DERIVATIVE_USERS curve at every DERIVATIVE_GRID power, the
    quotient takes roots at pi*(1 -+ DERIVATIVE_STEP), bracketed to
    LAMBDA_TOL like every other root.  At that step its truncation error is
    at most 6.17e-7 relative (K = 2, pi = 1000) and root errors move it by
    at most LAMBDA_TOL/(pi*h*lam') = 4.58e-8 (same point): together under
    7% of the 1e-5 bound.
    """
    tracker = _Tracker("derivative_consistency")
    h = DERIVATIVE_STEP
    for users in DERIVATIVE_USERS:
        for pi in DERIVATIVE_GRID:
            lam, lam_hi, lam_lo = (
                eval_point(ChannelConfig(users, total_power=p)).lambda_star
                for p in (pi, pi * (1.0 + h), pi * (1.0 - h))
            )
            analytic = dlambda_dpi(users, pi, lam)
            w = f"pi={pi:.6g}" if users is None else f"K={users}, pi={pi:.6g}"
            tracker.add(analytic, f"derivative_positive at {w}")
            fd = (lam_hi - lam_lo) / (2.0 * pi * h)
            rel_err = abs(fd - analytic) / abs(analytic)
            tracker.add(1e-5 - rel_err, f"derivative_fd_match at {w}")
    return tracker.report()


def check_monotone_unimodal() -> BoundReport:
    """Check curve shapes: lam monotone, F unimodal, bigger K dominates.

    Every DEFAULT_USERS curve is solved on the 0.1 dB grid from
    DEFAULT_FROM_DB to DEFAULT_TO_DB.  Unimodality is scored by sign
    changes of consecutive F differences (zero differences carry no sign
    information): a clean curve rises, flips sign exactly once, and falls,
    and scores a slack of 0; each defect costs -1.  The massive curve's
    far-end limits are anchored too: F(0.001) <= 1.01 and F(1e6) <= 1.321;
    they are solved in the massive curve's batch.
    """
    tracker = _Tracker("curve_shape")
    grid = _db_grid(DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.1)
    pis = np.array([db_to_linear(pi_db) for pi_db in grid])
    finite = DEFAULT_USERS[:-1]
    # Every finite curve in one batch, one row per user count.
    K = np.repeat(finite, len(grid))
    pi = np.tile(pis, len(finite))
    rows = _solve_finite_many(K, pi / K).reshape(len(finite), len(grid))
    lams: dict[int | None, np.ndarray] = dict(zip(finite, rows))
    limit_pis = np.array([1e-3, 1e6])
    massive = _solve_massive_many(np.append(pis, limit_pis))
    lams[None] = massive[:-2]
    for users in DEFAULT_USERS:
        lam = lams[users]
        F = np.log1p(pis * lam) / np.log1p(pis)
        label = "massive" if users is None else str(users)
        tracker.add(float(np.min(np.diff(lam))), f"lambda_nondecreasing at K={label}")
        diffs = np.diff(F)
        signs = diffs[diffs != 0.0] > 0.0
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        if flips == 1 and signs[0] and not signs[-1]:
            defect = 0.0
        else:
            defect = float(max(flips - 1, 1))
        tracker.add(0.0 if defect == 0.0 else -defect, f"F_unimodal at K={label}")
        peak_F = float(np.max(F))
        tracker.add(peak_F - float(F[0]), f"edge_below_peak_low at K={label}")
        tracker.add(peak_F - float(F[-1]), f"edge_below_peak_high at K={label}")

    for smaller, bigger in zip(DEFAULT_USERS, DEFAULT_USERS[1:]):
        big_label = "massive" if bigger is None else str(bigger)
        worst = float(np.min(lams[bigger] - lams[smaller]))
        tracker.add(worst, f"cross_k_domination K={smaller} vs K={big_label}")

    F_small, F_big = np.log1p(limit_pis * massive[-2:]) / np.log1p(limit_pis)
    tracker.add(1.01 - float(F_small), "small_power_limit at pi=0.001")
    tracker.add(TAIL_GAIN_CAP - float(F_big), "large_power_limit at pi=1e+06")
    return tracker.report()


def run_suite(sample: SampleSpec, sabotage: bool = False) -> list[BoundReport]:
    """Run every check once, sharing one solve per random sample.

    The samples and sandwich_large_k's four points (K = 1e2..1e8 at P = 1)
    are solved in one batched root solve, which hands any it cannot settle
    to the scalar solver, and their slacks are evaluated as arrays.  With
    sabotage=True every per-sample check is evaluated half a unit off the
    root (clamped into [1, K]); the residual gate must then flag every
    sample, so a passing sabotage run would expose a broken harness.  The
    four large-K points are split off before that and keep their roots.
    Violations are returned as data; solver errors propagate.
    """
    point = _Tracker("point_bounds")
    quality = _Tracker("root_quality", slop=0.0)
    gains = _Tracker("global_gain_bounds")
    K, P = draw_samples(sample)
    large_K, large_P = np.array([10**2, 10**4, 10**6, 10**8]), np.ones(4)
    lam = _solve_finite_many(np.append(K, large_K), np.append(P, large_P))
    lam, large_lam = lam[:K.size], lam[K.size:]
    if sabotage:
        lam = np.minimum(lam + 0.5, K)

    def at(row: int) -> str:
        return f"K={int(K[row])} P={float(P[row]):.6g}"

    # The residual is recomputed at the (possibly sabotaged) lam.
    res = _raw_residual_many(K, P, lam)
    quality.add_table([
        ("residual_within_tol", ROOT_RESIDUAL_TOL - np.abs(res)),
        ("lambda_at_least_1", lam - 1.0),
        ("lambda_at_most_K", K - lam),
    ], at)
    links = point_bound_slacks(K, P, lam)
    exists = np.ones((K.size, len(links)), dtype=bool)
    exists[:, -1] = lam < K  # bracket_cap, the last link
    point.add_table(links, at, exists)
    pi = K * P
    F = np.log1p(pi * lam) / np.log1p(pi)
    gains.add_table([
        ("gain_at_least_1", F - 1.0),
        ("doubling_cap", 2.0 - F),
        ("improved_cap", IMPROVED_GAIN_CAP - F),
    ], at)
    # Near-extremal witness: the massive curve close to its peak power.
    F = solve_lambda_massive(5.38).gain_F
    gains.add(F - 1.53, "near_extremal_witness_floor at pi=5.38")
    gains.add(1.54 - F, "near_extremal_witness_cap at pi=5.38")

    large = _Tracker("sandwich_large_k")
    links = dict(point_bound_slacks(large_K, large_P, large_lam))
    large.add_table(
        [(name, links[name]) for name in ("gain_floor", "fixed_point_ceiling")],
        lambda row: f"K={large_K[row]} P=1",
    )

    return [
        point.report(),
        quality.report(),
        large.report(),
        check_tail_bounds(),
        check_derivative(),
        check_monotone_unimodal(),
        gains.report(),
    ]


def suite_passed(reports: list[BoundReport]) -> bool:
    return all(r.passed for r in reports)
