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

from .core import (_RESIDUAL_ULPS, ChannelConfig, _balance, _fixed_point_many,
                   _slope_floor_many, db_to_linear)
from .solvers import (DEFAULT_FROM_DB, DEFAULT_TO_DB, DEFAULT_USERS, LAMBDA_TOL, db_grid,
                      eval_point)

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

# Newton passes _root_many runs in float32 before its float64 passes.
_SINGLE_PASSES = 3

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
    link name, and valid None, or one mask per column of the entries that
    exist (None where all do).  Entries count row by row, then link by
    link, then table by table; the first smallest slack wins a tie.  A
    slack below -slop, or a NaN, is a violation, but a NaN never wins.
    Each column is scored on its own, a missing entry as +inf, so no table
    is built: one whose plain minimum is >= -slop holds no violation and no
    NaN; only another is counted and reduced again, skipping NaNs.  Only
    the winning witness is formatted.
    """
    samples = violations = 0
    best = (math.inf, 0, 0, 0, "", None)  # (slack, table, row, link, name, label)
    for table, (columns, label, valid) in enumerate(tables):
        for link, (name, slacks) in enumerate(columns):
            exists = None if valid is None else valid[link]
            kept = slacks if exists is None else np.where(exists, slacks, math.inf)
            samples += kept.size if exists is None else int(np.count_nonzero(exists))
            low = kept.min(initial=math.inf)
            if not low >= -slop:
                violations += kept.size - int(np.count_nonzero(kept >= -slop))
                low = np.fmin.reduce(kept, initial=math.inf)
            if low < math.inf and low <= best[0]:
                row = int((kept == low).argmax())
                best = min(best, (float(kept[row]), table, row, link, name, label))
    worst, _, row, _, name, label = best
    return BoundReport(check_name, samples, violations, worst if samples else math.nan,
                       f"{name} {label(row)}" if label else "")


def point_bound_slacks(K: np.ndarray, P: np.ndarray,
                       lam: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Slacks of the root-point inequality chains at equal-length arrays.

    The five links, one array each: a two-sided logarithm bracket around
    ln(1+pi*lam), a two-sided sandwich around the root itself, and the cap
    that keeps the bracket's upper end below K*lam/(K-lam).  The cap is
    defined only for lam < K; callers drop its other entries.  The ceiling
    is core._fixed_point_many's K = inf residual negated, bit for bit.
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
            ("fixed_point_ceiling", (1.0 + t) * (log_term / t) - lam),
            ("bracket_cap", K * lam / (K - lam) - upper),
        ]


def _gain(pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The capacity gain factor F = ln(1+pi*lam) / ln(1+pi), elementwise."""
    return np.log1p(pi * lam) / np.log1p(pi)


def _root_many(K: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The power gain at every (K, pi), K = inf massive, by certified Newton steps.

    Each element starts at hi = min(K, 2 + 2*ln(1+pi)), where the residual
    exceeds 1 - ln(2) > 0 for every K (core._lambda_bound's proof).  The
    first _SINGLE_PASSES Newton passes run core._fixed_point_many on
    float32 copies of K, pi and hi, in float32 views of the workspace;
    they bring each suite element within 4e-7 of its root, relative.
    Their point, NaN where a float32 form overflowed, is clipped into [1,
    hi], NaN to hi, and two float64 Newton passes follow.  G_K is concave
    in t, so the residual r is convex in lam with r' > 0 on [1, inf): the
    first float64 pass steps to a point w at or above the root from either
    side, and only steps, since its own point may lie below G_2(pi).  The
    second evaluates r(w) and steps to x = w - step.  Every pass runs over
    every element with no mask, into one workspace, so none allocates.
    The scalar solver's slope floor, with |step| at its bound tol/4, tol =
    LAMBDA_TOL, then certifies each x, w lying in [G_2(pi), hi] as the
    floor's proof requires: w <= hi, x in [1, hi], |step| < tol/4 and
    |r(w)| + E <= (3/4)*tol*m, m = core._slope_floor_many at hi, and E =
    core._RESIDUAL_ULPS*2**-52*x, at least that many ulps of w but for
    under 1e-27, w being within tol/4 and an ulp of x; so |x - root| <=
    |w - root| + |step| < tol.  A NaN fails every test.  No other rule
    settles: every element the floor leaves, one whose x exceeds about 420
    (where E alone exceeds the bound) or that two float64 passes leave
    unsettled, goes in input order to the scalar eval_point at the same K
    and total power.  That pins it to lam = 1, takes the cap as its root,
    solves it by its own rule, or raises its own error.  Batch and scalar
    roots take different Newton points and may be a few ulps apart, each
    certified by its own rule.
    """
    K = np.asarray(K, dtype=float)
    with np.errstate(all="ignore"):
        top = np.log1p(pi)  # then min(K, 2 + 2a), in place
        top *= 2.0
        top += 2.0
        np.minimum(top, K, out=top)
        work = np.empty((5, K.size))  # _fixed_point_many's five rows
        # Ten float32 rows in its bytes: the float32 passes' five, then K,
        # pi and their point.
        work32 = work.view(np.float32).reshape(10, -1)
        K32, pi32, x32 = work32[5:8]
        K32[...], pi32[...], x32[...] = K, pi, top
        for _ in range(_SINGLE_PASSES):
            r, d = _fixed_point_many(K32, pi32, x32, work32)
            x32 -= np.divide(r, d, out=r)
        lam = np.maximum(x32, 1.0, dtype=float)  # the point, then w and x, in place
        np.fmin(lam, top, out=lam)  # a NaN point takes hi
        r, d = _fixed_point_many(K, pi, lam, work)
        lam -= np.divide(r, d, out=r)  # the first float64 pass only steps
        r, d = _fixed_point_many(K, pi, lam, work)
        settled = lam <= top  # w <= hi
        step = np.divide(r, d, out=d)
        lam -= step  # x = w - step, r kept at w
        settled &= lam >= 1.0
        settled &= lam <= top
        settled &= np.abs(step, out=step) < 0.25 * LAMBDA_TOL
        bound = np.multiply(_slope_floor_many(pi, top, work), 0.75 * LAMBDA_TOL, out=work[0])
        error = np.multiply(lam, _RESIDUAL_ULPS * 2.0**-52, out=work[1])
        error += np.abs(r, out=r)
        settled &= error <= bound
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
    tails respect F <= 1.321.  pis ascend, and lams with them, so each
    link is scored on a slice: its tail, where lam > e for loose-vs-tight.
    run_suite scores 34 powers at 2.5 dB steps, -60 to -10 dB and 30 to 60 dB.
    """
    high = int(np.searchsorted(pis, 1.0))
    e = max(high, int(np.searchsorted(lams, math.e, side="right")))
    t = pis * lams
    with np.errstate(all="ignore"):
        F = _gain(pis, lams)
        a = lams * t / (1.0 + t)
        # ln(e^a + lam - 1) evaluated as a + log1p((lam-1)*e^-a) so the
        # huge exponential never materializes.
        tight = lams / (a + np.log1p((lams - 1.0) * np.exp(-a)) - np.log(lams))
        loose = 1.0 / (t / (1.0 + t) - np.log(lams) / lams)
        tables = [
            [("small_power_linear_cap", ((1.0 + pis) * lams - F)[:high]),
             ("small_power_ratio_cap", ((1.0 + pis) / (1.0 - pis) - (1.0 + pis) * lams)[:high]),
             ("small_power_11_9", (11.0 / 9.0 - F)[:high])],
            [("log_dominated", (lams - np.log1p(t))[high:]),
             ("large_power_tight_cap", (tight - F)[high:])],
            [("large_power_loose_vs_tight", (loose - tight)[e:])],
            [("tail_cap", TAIL_GAIN_CAP - F)],
        ]
    return _report("tail_bounds", [(links, lambda row, at=at: f"at pi={pis[at + row]:.6g}", None)
                                   for links, at in zip(tables, (0, high, e, 0))])


def check_derivative(lams: np.ndarray) -> BoundReport:
    """Validate the analytic slope lam' against central differences.

    lams holds the roots of _FIXED's derivative section in its order, K
    and pi every third element: curve DERIVATIVE_USERS[u] at DERIVATIVE_GRID
    times 1, 1 + h and 1 - h, h = DERIVATIVE_STEP, bracketed to LAMBDA_TOL.
    Implicit differentiation of the residual r = lam - G_K(pi*lam) gives
    lam' = lam*(1 - r')/(pi*r'), and 0 where r' >= 1, at a root that
    rounds to the cap K; r' is read off core._fixed_point_many at the
    roots in one call.  At that step the quotient's truncation error is at
    most 6.17e-7 relative (K = 2, pi = 1000) and root errors move it by at
    most LAMBDA_TOL/(pi*h*lam') = 4.58e-8 (same point): together under 7%
    of the 1e-5 bound.
    """
    *_, fixed_K, fixed_pi, cuts = _FIXED
    K, pi = fixed_K[cuts[2]:cuts[3]:3], fixed_pi[cuts[2]:cuts[3]:3]
    lam, lam_hi, lam_lo = lams.reshape(-1, 3).T
    with np.errstate(all="ignore"):
        slope = _fixed_point_many(K, pi, lam, np.empty((5, lam.size)))[1]
        analytic = np.where(slope < 1.0, lam * (1.0 - slope) / (pi * slope), 0.0)
    fd = (lam_hi - lam_lo) / (2.0 * pi * DERIVATIVE_STEP)
    rel_err = np.abs(fd - analytic) / np.abs(analytic)

    def label(row: int) -> str:
        at = f"pi={pi[row]:.6g}"
        return f"at {at}" if K[row] == math.inf else f"at K={int(K[row])}, {at}"

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


def _suite_inputs() -> tuple[np.ndarray, ...]:
    """run_suite's seed-independent inputs, in its order, built once at import, read-only."""
    large_K, large_P = np.array([10**2, 10**4, 10**6, 10**8]), np.ones(4)
    curve_pis = np.array(
        [db_to_linear(x) for x in db_grid(DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.1)])
    fd_pis = np.outer(DERIVATIVE_GRID, (1.0, 1.0 + DERIVATIVE_STEP, 1.0 - DERIVATIVE_STEP))
    tail_pis = np.array([db_to_linear(x) for lo, hi in ((-60.0, -10.0), (30.0, 60.0))
                         for x in db_grid(lo, hi, 2.5)])
    limit_pis = np.array([1e-3, 1e6])
    # The batch's (K, pi) sections after the samples, the massive limit as K = inf.
    sections = [(large_K, large_K * large_P)] + [
        (np.repeat([math.inf if users is None else users for users in curves], pis.size),
         np.tile(pis.ravel(), len(curves)))
        for curves, pis in ((DEFAULT_USERS, curve_pis), (DERIVATIVE_USERS, fd_pis))] + [
        (np.full(pis.size, math.inf), pis) for pis in (limit_pis, tail_pis, np.array([5.38]))]
    fixed = (large_K, large_P, curve_pis, tail_pis, limit_pis,
             *(np.concatenate(column) for column in zip(*sections)),
             np.cumsum([0] + [pis.size for _, pis in sections[:-1]]))
    for array in fixed:
        array.setflags(write=False)
    return fixed


_FIXED = _suite_inputs()


def run_suite(sample: SampleSpec, sabotage: bool = False) -> list[BoundReport]:
    """Run every check once on the roots of one batch.

    The batch holds the samples, then the fixed points of _FIXED:
    sandwich_large_k's four (K = 1e2..1e8 at P = 1), the curves of curve_shape
    and derivative_consistency, and the massive limits, tails and witness.  With
    sabotage=True every per-sample check is evaluated half a unit off the
    root (clamped into [1, K]); the residual gate must then flag every
    sample, so a passing sabotage run would expose a broken harness.
    The drawn user counts are made floats once, here: every slack mixes
    them with float arrays, which numpy runs about twice as slow on int64
    operands, and every count below 2**53 is exact as a float, so no slack
    moves.  draw_samples keeps drawing integers, the counts it promises.
    Violations are returned as data; solver errors propagate.
    """
    large_K, large_P, curve_pis, tail_pis, limit_pis, fixed_K, fixed_pi, cuts = _FIXED
    K, P = draw_samples(sample)
    K = K.astype(float)
    pi = K * P
    lam, large_lam, curve_lams, fd_lams, limit_lams, tail_lams, (witness,) = np.split(
        _root_many(np.concatenate((K, fixed_K)), np.concatenate((pi, fixed_pi))),
        K.size + cuts)
    curve_lams = curve_lams.reshape(-1, curve_pis.size)
    if sabotage:
        lam = np.minimum(lam + 0.5, K)

    def at(row: int) -> str:
        return f"at K={int(K[row])} P={float(P[row]):.6g}"

    # The paper's per-user balance residual, at the (possibly sabotaged) lam.
    res = _balance(lam, K, P, np.log1p) / (K * (K - 1.0))
    links = point_bound_slacks(K, P, lam)
    exists = [None] * (len(links) - 1) + [lam < K]  # bracket_cap, the last link
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
        check_derivative(fd_lams),
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
