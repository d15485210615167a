"""Executable verification of the inequality, limit, and shape claims.

Each check scores the slack of every inequality it is responsible for at
roots that run_suite solves in one batch (slack >= 0 means the claim
holds).  Every check is one call of one scorer, _report, over tables of
slacks with one row per point and one column per inequality; the
smallest slack is the check's witness.  Slacks below -1e-9 count as
violations; the slop absorbs floating-point noise on claims whose strict
version only degenerates at analytic boundaries (vanishing power).
Root-quality checks use zero slop because their tolerances are already
explicit.  All checks are pure and
deterministic under a fixed seed.  Check violations are reported as data;
a solver error (BracketError, ConvergenceError) propagates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import solvers
from .core import ChannelConfig, _balance, _fixed_point_many, db_to_linear, dlambda_dpi
from .solvers import DEFAULT_FROM_DB, DEFAULT_TO_DB, DEFAULT_USERS, db_grid, eval_point

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
        for name, value in (("seed", seed), ("n_samples", n_samples)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _report(check_name: str, tables, slop: float = NUMERIC_SLOP) -> BoundReport:
    """Score tables of slacks as one named check; the smallest slack is the witness.

    Each table is (columns, label, valid): columns a list of (link_name,
    slacks) pairs, one slack per row, label(row) the witness text after the
    link name, and valid a mask of the entries that exist, or None.
    Entries count row by row, then link by link, then table by table; the
    first smallest slack wins a tie.  A slack below -slop, or a NaN, is a
    violation, but a NaN never wins.  Only the winning witness is formatted.
    """
    samples = violations = 0
    worst, witness = math.inf, ""
    for columns, label, valid in tables:
        table = np.column_stack([slack for _, slack in columns])
        if not table.size:
            continue
        if valid is None:
            valid = np.ones(table.shape, dtype=bool)
        samples += int(np.count_nonzero(valid))
        violations += int(np.count_nonzero(valid & ~(table >= -slop)))
        ranked = np.where(valid & ~np.isnan(table), table, math.inf)
        first = int(np.argmin(ranked))
        if ranked.flat[first] < worst:
            row, col = divmod(first, table.shape[1])
            worst = float(ranked.flat[first])
            witness = f"{columns[col][0]} {label(row)}"
    return BoundReport(check_name, samples, violations,
                       worst if samples else math.nan, witness)


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
            ("fixed_point_ceiling", -_fixed_point_many(math.inf, pi, lam)),
            ("bracket_cap", K * lam / (K - lam) - upper),
        ]


def _gain(pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The capacity gain factor F = ln(1+pi*lam) / ln(1+pi), elementwise."""
    return np.log1p(pi * lam) / np.log1p(pi)


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


def _root_many(K: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """solvers._root of core._fixed_point_many at every (K, pi), K = inf massive.

    One doubling pass, each upper end capped at its K, then one
    _bisect_many, with the tolerances read off the solvers module at call
    time.  An element is settled here when its residual is < 0 at 1, its
    doubled bracket is (-, +), no ITP step met a NaN and it took fewer than
    MAX_ITER steps.  Every other element goes, in input order, to the
    scalar eval_point at the same K and total power, which pins it to
    lam = 1, takes the cap as its root, solves it or raises its own error.
    Where numpy's log1p or expm1 differ from math's in the last ulp, the
    ITP points differ, and batch and scalar roots may be a few ulps apart,
    both certified by their brackets.
    """
    K = np.asarray(K, dtype=float)

    def fn(lam, i=slice(None)):
        return _fixed_point_many(K[i], pi[i], lam)

    with np.errstate(all="ignore"):
        lo = np.ones_like(K)
        f_lo = fn(lo)
        hi = np.minimum(2.0, K)
        f_hi = fn(hi)
        growing = np.flatnonzero((f_lo < 0.0) & (f_hi <= 0.0) & (hi < K))
        expansions = 1
        while growing.size and expansions < solvers.MAX_ITER:
            lo[growing], f_lo[growing] = hi[growing], f_hi[growing]
            hi[growing] = np.minimum(2.0 * hi[growing], K[growing])
            f_hi[growing] = fn(hi[growing], growing)
            expansions += 1
            growing = growing[(f_hi[growing] <= 0.0) & (hi[growing] < K[growing])]
        lam, res, iterations = _bisect_many(
            fn, lo, hi, f_lo, f_hi, solvers.LAMBDA_TOL, solvers.MAX_ITER
        )
    settled = ((f_lo < 0.0) & (f_hi > 0.0) & ~np.isnan(res)
               & (iterations < solvers.MAX_ITER))
    for i in np.flatnonzero(~settled):
        users = None if K[i] == math.inf else int(K[i])
        lam[i] = eval_point(ChannelConfig(users, total_power=float(pi[i]))).lambda_star
    return lam


def check_tail_bounds(pis: np.ndarray, lams: np.ndarray) -> BoundReport:
    """Check the gain caps on both tails of the massive curve at roots lams.

    Low tail (pi < 1): F <= (1+pi)*lam <= (1+pi)/(1-pi) and F <= 11/9.
    High tail: lam dominates ln(1+pi*lam), F stays below the tight cap
    lam / (ln(e^a + lam - 1) - ln lam) with a = pi*lam^2/(1+pi*lam), and
    that cap stays below its loose closed form wherever lam > e.  Both
    tails respect F <= 1.321.  Each power is one row of seven links, those
    of the other tail masked out.  run_suite scores 34 powers at 2.5 dB
    steps, -60 to -10 dB and 30 to 60 dB.
    """
    t = pis * lams
    with np.errstate(all="ignore"):
        F = _gain(pis, lams)
        a = lams * t / (1.0 + t)
        # ln(e^a + lam - 1) evaluated as a + log1p((lam-1)*e^-a) so the
        # huge exponential never materializes.
        tight = lams / (a + np.log1p((lams - 1.0) * np.exp(-a)) - np.log(lams))
        loose = 1.0 / (t / (1.0 + t) - np.log(lams) / lams)
        links = [
            ("small_power_linear_cap", (1.0 + pis) * lams - F),
            ("small_power_ratio_cap", (1.0 + pis) / (1.0 - pis) - (1.0 + pis) * lams),
            ("small_power_11_9", 11.0 / 9.0 - F),
            ("log_dominated", lams - np.log1p(t)),
            ("large_power_tight_cap", tight - F),
            ("large_power_loose_vs_tight", loose - tight),
            ("tail_cap", TAIL_GAIN_CAP - F),
        ]
    low = pis < 1.0
    valid = np.column_stack([low, low, low, ~low, ~low, ~low & (lams > math.e),
                             np.ones_like(low)])
    return _report("tail_bounds", [(links, lambda row: f"at pi={pis[row]:.6g}", valid)])


def check_derivative(pis: np.ndarray, lams: np.ndarray) -> BoundReport:
    """Validate the analytic slope dlambda_dpi against central differences.

    pis[j] holds a power pi times 1, 1 + h and 1 - h, h = DERIVATIVE_STEP,
    and lams[u, j] the roots of curve DERIVATIVE_USERS[u] there, bracketed
    to LAMBDA_TOL like every other root.  At that step the quotient's
    truncation error is at most 6.17e-7 relative (K = 2, pi = 1000) and
    root errors move it by at most LAMBDA_TOL/(pi*h*lam') = 4.58e-8 (same
    point): together under 7% of the 1e-5 bound.
    """
    points = [(users, pi) for users in DERIVATIVE_USERS for pi in pis[:, 0].tolist()]
    lam, lam_hi, lam_lo = lams.reshape(-1, 3).T
    analytic = np.array([dlambda_dpi(users, pi, root)
                         for (users, pi), root in zip(points, lam.tolist())])
    fd = (lam_hi - lam_lo) / (2.0 * np.array([pi for _, pi in points]) * DERIVATIVE_STEP)
    rel_err = np.abs(fd - analytic) / np.abs(analytic)

    def label(row: int) -> str:
        users, pi = points[row]
        return f"at pi={pi:.6g}" if users is None else f"at K={users}, pi={pi:.6g}"

    return _report("derivative_consistency", [(
        [("derivative_positive", analytic), ("derivative_fd_match", 1e-5 - rel_err)],
        label, None)])


def check_monotone_unimodal(pis: np.ndarray, lams: np.ndarray, limit_pis: np.ndarray,
                            limit_lams: np.ndarray) -> BoundReport:
    """Check curve shapes: lam monotone, F unimodal, bigger K dominates.

    lams holds one row of roots at the powers pis per DEFAULT_USERS curve.
    Unimodality is scored by sign changes of consecutive F differences
    (zero differences carry no sign information): a clean curve rises,
    flips sign exactly once, and falls, and scores a slack of 0; each
    defect costs -1.  The massive curve's far-end limits are anchored too,
    roots limit_lams at limit_pis = (0.001, 1e6): F <= 1.01 and F <= 1.321.
    """
    F = _gain(pis, lams)
    defects = []
    for diffs in np.diff(F):
        signs = diffs[diffs != 0.0] > 0.0
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        clean = flips == 1 and signs[0] and not signs[-1]
        defects.append(0.0 if clean else -float(max(flips - 1, 1)))
    peak_F = F.max(axis=1)
    names = ["massive" if users is None else str(users) for users in DEFAULT_USERS]
    limit_F = _gain(limit_pis, limit_lams)
    return _report("curve_shape", [
        ([("lambda_nondecreasing", np.diff(lams).min(axis=1)),
          ("F_unimodal", np.array(defects)),
          ("edge_below_peak_low", peak_F - F[:, 0]),
          ("edge_below_peak_high", peak_F - F[:, -1])],
         lambda row: f"at K={names[row]}", None),
        ([("cross_k_domination", (lams[1:] - lams[:-1]).min(axis=1))],
         lambda row: f"K={names[row]} vs K={names[row + 1]}", None),
        ([("small_power_limit", 1.01 - limit_F[:1])], lambda row: "at pi=0.001", None),
        ([("large_power_limit", TAIL_GAIN_CAP - limit_F[1:])],
         lambda row: "at pi=1e+06", None),
    ])


def run_suite(sample: SampleSpec, sabotage: bool = False) -> list[BoundReport]:
    """Run every check once on the roots of one batch.

    The batch holds the samples, sandwich_large_k's four points (K = 1e2..1e8
    at P = 1), the curves of curve_shape and derivative_consistency, and
    the massive far-end limits, tail powers and witness.  With
    sabotage=True every per-sample check is evaluated half a unit off the
    root (clamped into [1, K]); the residual gate must then flag every
    sample, so a passing sabotage run would expose a broken harness.
    Violations are returned as data; solver errors propagate.
    """
    K, P = draw_samples(sample)
    pi = K * P
    large_K, large_P = np.array([10**2, 10**4, 10**6, 10**8]), np.ones(4)
    curve_pis = np.array(
        [db_to_linear(x) for x in db_grid(DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.1)])
    h = DERIVATIVE_STEP
    fd_pis = np.outer(DERIVATIVE_GRID, (1.0, 1.0 + h, 1.0 - h))
    tail_pis = np.array([db_to_linear(x) for lo, hi in ((-60.0, -10.0), (30.0, 60.0))
                         for x in db_grid(lo, hi, 2.5)])
    limit_pis = np.array([1e-3, 1e6])
    massive_pis = np.hstack([limit_pis, tail_pis, [5.38]])
    # (K, pi) blocks of one batch, the massive limit as K = inf.
    blocks = [(K, pi), (large_K, large_K * large_P)] + [
        (np.full(pis.size, math.inf if users is None else users), pis.ravel())
        for curves, pis in ((DEFAULT_USERS, curve_pis), (DERIVATIVE_USERS, fd_pis))
        for users in curves] + [(np.full(massive_pis.size, math.inf), massive_pis)]
    lam, large_lam, curve_lams, fd_lams, limit_lams, tail_lams, (witness,) = np.split(
        _root_many(*(np.hstack(column) for column in zip(*blocks))),
        np.cumsum([K.size, large_K.size, curve_pis.size * len(DEFAULT_USERS),
                   fd_pis.size * len(DERIVATIVE_USERS), limit_pis.size, tail_pis.size]))
    curve_lams = curve_lams.reshape(-1, curve_pis.size)
    fd_lams = fd_lams.reshape(-1, *fd_pis.shape)
    if sabotage:
        lam = np.minimum(lam + 0.5, K)

    def at(row: int) -> str:
        return f"at K={int(K[row])} P={float(P[row]):.6g}"

    # The paper's per-user balance residual, at the (possibly sabotaged) lam.
    res = _balance(lam, K, P, np.log1p) / (K * (K - 1.0))
    links = point_bound_slacks(K, P, lam)
    exists = np.ones((K.size, len(links)), dtype=bool)
    exists[:, -1] = lam < K  # bracket_cap, the last link
    F = _gain(pi, lam)
    # Near-extremal witness: the massive curve close to its peak power.
    F_witness = math.log1p(5.38 * float(witness)) / math.log1p(5.38)
    large = dict(point_bound_slacks(large_K, large_P, large_lam))
    return [
        _report("point_bounds", [(links, at, exists)]),
        _report("root_quality", [([
            ("residual_within_tol", ROOT_RESIDUAL_TOL - np.abs(res)),
            ("lambda_at_least_1", lam - 1.0),
            ("lambda_at_most_K", K - lam),
        ], at, None)], slop=0.0),
        _report("sandwich_large_k", [(
            [(name, large[name]) for name in ("gain_floor", "fixed_point_ceiling")],
            lambda row: f"at K={large_K[row]} P=1", None)]),
        check_tail_bounds(tail_pis, tail_lams),
        check_derivative(fd_pis, fd_lams),
        check_monotone_unimodal(curve_pis, curve_lams, limit_pis, limit_lams),
        _report("global_gain_bounds", [
            ([("gain_at_least_1", F - 1.0),
              ("doubling_cap", 2.0 - F),
              ("improved_cap", IMPROVED_GAIN_CAP - F)], at, None),
            ([("near_extremal_witness_floor", np.array([F_witness - 1.53])),
              ("near_extremal_witness_cap", np.array([1.54 - F_witness]))],
             lambda row: "at pi=5.38", None),
        ]),
    ]


def suite_passed(reports: list[BoundReport]) -> bool:
    return all(r.passed for r in reports)
