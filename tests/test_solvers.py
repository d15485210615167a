"""Solver tests: the bisection kernel, finite and massive roots, the
parametric cross-check, curve sweeps, and peak search."""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

import pytest

import macgain.solvers as solvers_module
from conftest import (
    bracketed_bisect,
    brute_peak_k2,
    frozen_bisect,
    frozen_fixed_point,
    raw_residual,
    sign_scan_root,
)
from reference import brackets, massive_certified
from test_oracle import GRID_POWER_DB, GRID_USERS, MASSIVE_POWER_DB
from macgain.core import (_RESIDUAL_ULPS, ChannelConfig, _fixed_point, _lambda_bound,
                          _slope_floor, db_to_linear, f_of, linear_to_db, massive_parametric)
from macgain.solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    DEFAULT_USERS,
    BracketError,
    ConvergenceError,
    LAMBDA_TOL,
    MAX_GRID_POINTS,
    MAX_ITER,
    NoPeakError,
    db_grid,
    eval_point,
    find_peak,
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)
from macgain.verify import BoundReport, SampleSpec, draw_samples

# Root of the three-user balance equation at P = 10, solved before the build
# by an independent scan-and-refine pass over the raw residual.
LAMBDA_K3_P10 = 2.305501180940743

# Massive-limit anchors from an independent damped fixed-point iteration.
LAMBDA_MASSIVE_1000 = 9.119252679077707
F_MASSIVE_1000 = 1.3198113234564064
LAMBDA_MASSIVE_01 = 1.0507902329815946
F_MASSIVE_01 = 1.048333419523501
LAMBDA_MASSIVE_538 = 3.0240440659757075
F_MASSIVE_538 = 1.5373314852951239

# Hundred-user anchor at unit per-user power, same scan-and-refine source.
LAMBDA_K100_P1 = 6.245751003216981
F_K100_P1 = 1.3951252981730995


def _bisection_steps(lo: float, hi: float, tol: float) -> int:
    """ceil(log2((hi - lo) / tol)) in exact arithmetic: bisection's step count."""
    return (math.ceil(Fraction(hi - lo) / Fraction(tol)) - 1).bit_length()


def _cube(root):
    """x**3 - root**3, flat at 0: regula falsi from [0, 1] crawls, and ITP's midpoints take over."""
    return lambda x: x * x * x - root * root * root


def _bisect_run(fn, lo, hi, tol=LAMBDA_TOL, max_iter=MAX_ITER):
    """_bisect's result, or its error message, and the points it evaluated.

    A result is certified by its bracket (conftest.bracketed_bisect).
    """
    try:
        return bracketed_bisect(fn, lo, hi, fn(lo), fn(hi), tol, max_iter)
    except ConvergenceError as err:
        return str(err), None


class TestBisect:
    """_bisect on residuals with known roots, each certified by its bracket."""

    def test_simple_root(self):
        (x, fx, iters), points = _bisect_run(lambda x: (x - 0.3) + (x - 0.3) ** 3, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=LAMBDA_TOL)
        assert abs(fx) <= LAMBDA_TOL
        assert iters == len(points) == _bisection_steps(0.0, 1.0, LAMBDA_TOL) == 40

    def test_exact_zero_becomes_the_upper_end(self):
        # The first midpoint is the root.  Its f = 0 moves the upper end
        # like any f > 0, and the bracket narrows below it to tol, 40
        # midpoints in all; the zero end has the smaller |f|.
        (x, fx, iters), points = _bisect_run(lambda x: x - 0.5, 0.0, 1.0)
        assert (x, fx, iters, points[0]) == (0.5, 0.0, 40, 0.5)

    def test_iteration_cap(self):
        outcome, _ = _bisect_run(lambda x: x * x - 5.0, 0.0, 4.0, tol=1e-30, max_iter=5)
        # Five halvings leave [2.125, 2.25], 4/2**5 wide, around sqrt(5).
        assert outcome == "bracket [2.125, 2.25] is wider than 1e-30 after 5 iterations"

    def test_float_exhaustion_stops(self):
        # No float lies strictly between the ends, so even tol = 0 stops
        # before a step, at the end with the smaller |f|.
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        (x, fx, iters), points = _bisect_run(lambda x: x - 2.0, lo, hi, tol=0.0)
        assert (x, iters, points) == (hi, 0, [])
        # Bisected to tol = 0, a bracket narrows until its ends are adjacent
        # floats, 2**-54 apart around sqrt(0.2): 54 halvings of [0, 1].
        (x, fx, iters), points = _bisect_run(lambda x: x * x - 0.2, 0.0, 1.0, tol=0.0)
        assert x == math.sqrt(0.2) and fx != 0.0
        assert iters == len(points) == 54

    def test_nan_raises(self):
        # The second midpoint, 0.25, lies where the residual is NaN.
        outcome, _ = _bisect_run(lambda x: math.nan if 0.2 < x < 0.3 else x - 0.3, 0.0, 1.0)
        assert outcome == "residual is NaN at lam=0.25"

    @pytest.mark.parametrize(
        "lo, hi, root, tol, max_iter",
        [
            (0.0, 1.0, 0.3, 1e-12, 200),
            (0.0, 1.0, 0.5, 1e-12, 200),  # an exact zero at 0.5
            (0.0, 1.0, 0.3, 1e-30, 7),  # iteration cap
            (1.0, math.nextafter(1.0, 2.0), 2.0, 0.0, 200),  # no float between ends
            (-3.0, 5.0, 1.0 / 3.0, 1e-15, 200),
            (0.0, 1.0, 0.5, 2.0, 200),  # no step; lo has the smaller |f|
        ],
    )
    def test_kernel_matches_scalar_bisect(self, lo, hi, root, tol, max_iter):
        # Bisection and conftest's ITP reference each close a certified
        # bracket on the same residual, so their roots are within 2 tol of
        # each other, or both raise at the cap.  Where the ends are no
        # (-, +) bracket (the root 2 lies outside [1, 1 + ulp]), both take
        # the same end.
        fn = _cube(root)
        f_lo, f_hi = fn(lo), fn(hi)
        bisect = lambda: bracketed_bisect(fn, lo, hi, f_lo, f_hi, tol, max_iter)[0]
        itp = lambda: frozen_bisect(fn, lo, hi, f_lo, f_hi, tol, max_iter)
        if max_iter == 7:
            for run in (bisect, itp):
                with pytest.raises(ConvergenceError, match="after 7 iterations"):
                    run()
            return
        (x, _, _), (x_itp, _, _) = bisect(), itp()
        assert abs(x - x_itp) <= 2.0 * tol

    @pytest.mark.parametrize(
        "fn, lo, hi, f_lo, f_hi, tol",
        [
            # An infinite residual at either end, where a Newton step
            # would be NaN: the kernel bisects and never returns that end.
            (lambda x: x * x - 0.2, 0.0, 1.0, -math.inf, 0.8, 1e-12),
            (lambda x: x * x - 0.2, 0.0, 1.0, -0.2, math.inf, 1e-12),
            # The Newton point of hi, 1 - 0.7/0.7, is the lower end.
            (lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7, 1e-12),
            # No float between the ends: no step at all.
            (lambda x: x - 1.0 - 2.0**-53, 1.0, math.nextafter(1.0, 2.0),
             -(2.0**-53), 2.0**-53, 0.0),
        ],
        ids=["nan_from_lower_inf", "nan_from_upper_inf", "projected_onto_end",
             "adjacent_floats"],
    )
    def test_fallback_takes_the_midpoint(self, fn, lo, hi, f_lo, f_hi, tol):
        # bracketed_bisect certifies the result: an end of a (-, >= 0)
        # bracket at most tol wide, never an infinite end.
        want, steps = bracketed_bisect(fn, lo, hi, f_lo, f_hi, tol, 200)
        if tol == 0.0:
            assert want[2] == 0 and want[0] in (lo, hi)
            return
        assert math.isfinite(want[1])
        # The first step is the midpoint.
        assert steps[0] == 0.5 * (lo + hi)


def _upper_end(config):
    """The upper end hi of _solve's bracket [1, hi] for config."""
    pi = config.total_power
    cap = math.inf if config.users is None else float(config.users)
    return min(cap, max(_lambda_bound(pi, math.log1p(pi)), 1.0 + 2.0 * LAMBDA_TOL))


@pytest.fixture
def kernel_calls(monkeypatch):
    """(lo, hi, tol, steps) of every root that a solve or a peak search takes.

    A solve's Newton steps on [1, hi] are its evaluations after the one at
    hi; a _bisect call, a peak search's or a solve's fallback, is logged
    with its own bracket and steps.  A test that logged nothing fails.
    """
    calls = []
    kernel, solve = solvers_module._bisect, solvers_module._solve

    def logged_kernel(fn, lo, hi, *rest):
        result = kernel(fn, lo, hi, *rest)
        calls.append((lo, hi, rest[-2], result[2]))
        return result

    def logged_solve(config):
        sol = solve(config)
        if not sol.degenerate:
            calls.append((1.0, _upper_end(config), LAMBDA_TOL, sol.iterations - 1))
        return sol

    monkeypatch.setattr(solvers_module, "_bisect", logged_kernel)
    monkeypatch.setattr(solvers_module, "_solve", logged_solve)
    yield calls
    assert calls, "no solve or search ran through the patched kernels"


@pytest.fixture
def evaluated(monkeypatch):
    """Every point, in order, at which the solves evaluate the residual; none fails the test."""
    points = []

    def logged(K, pi, lam):
        points.append(lam)
        return _fixed_point(K, pi, lam)

    monkeypatch.setattr(solvers_module, "_fixed_point", logged)
    yield points
    assert points, "no solve read the patched residual"


@pytest.fixture
def evaluations(monkeypatch):
    """A one-item list that counts every residual evaluation the solves make; 0 fails the test."""
    count = [0]

    def counted(K, pi, lam):
        count[0] += 1
        return _fixed_point(K, pi, lam)

    monkeypatch.setattr(solvers_module, "_fixed_point", counted)
    yield count
    assert count[0] > 0, "no solve read the patched residual"


class TestITPSteps:
    """The root kernels keep within a step of bisection on every grid, and beat it on average.

    A solve's plain Newton steps root lam, the parametric inversion's
    through the massive solve, and _bisect roots the peak search's slope;
    the class keeps the name of the ITP kernel that once took the last two.
    """

    @pytest.mark.parametrize(
        "solve_grid",
        [pytest.param(lambda K=K: [solve_lambda_star(K, db_to_linear(power_db))
                                   for power_db in GRID_POWER_DB], id=f"K={K}")
         for K in GRID_USERS]
        + [pytest.param(lambda: [solve_lambda_massive(db_to_linear(pi_db))
                                 for pi_db in MASSIVE_POWER_DB], id="massive"),
           pytest.param(lambda: [invert_massive_parametric(db_to_linear(pi_db))
                                 for pi_db in MASSIVE_POWER_DB], id="inversion"),
           # The searches' solves are logged with them.
           pytest.param(lambda: [find_peak(users, *ends) for users in (2, 10, None)
                                 for ends in ((), (-300.0, 3000.0))], id="peak")],
    )
    def test_at_most_one_step_beyond_bisection(self, kernel_calls, solve_grid):
        solve_grid()
        assert kernel_calls
        over = [(lo, hi, steps) for lo, hi, tol, steps in kernel_calls
                if steps > _bisection_steps(lo, hi, tol) + 1]
        assert over == []

    # The mean iterations per root below are machine-independent figures,
    # pinned between the slope floor's and the probe's it replaced, so a
    # start or an acceptance that costs evaluations fails them without a
    # timing run.  .iterations counts every residual evaluation of a solve
    # but r(1), which is read only where the Newton steps settle nothing:
    # at a root pinned to 1, taken at the cap or bracketed by _bisect.  The
    # evaluations fixture counts them all.  Each root's last
    # Newton step is accepted unevaluated wherever the floor certifies it;
    # the probe past it that the Newton kernel took cost one more per root
    # on each grid.

    def test_mean_steps_on_the_sample_box(self, evaluations):
        # The verify sample box: 3.71 evaluations per root, at most 5, where
        # bisection of the same brackets takes 42.7 (the upper end included),
        # ITP steps took 9.6, Newton from the closed-form end 5.6, from two
        # map steps 4.85 and from the Newton end with its probe 4.54.
        K, P = draw_samples(SampleSpec(seed=42, n_samples=2000))
        steps = [solve_lambda_star(int(k), float(p)).iterations for k, p in zip(K, P)]
        assert statistics.mean(steps) <= 3.75
        assert max(steps) <= 5
        assert evaluations[0] == sum(steps)
        assert round(evaluations[0] / len(steps), 2) == 3.71

    def test_mean_steps_on_the_oracle_grid(self, evaluations):
        # Bisection of the same brackets takes 41.0 iterations per root
        # here, ITP steps took 8.7, Newton from the closed-form end 4.5,
        # from two map steps 3.64 and from the Newton end with its probe
        # 3.23: with the floor it takes 2.65, at most 5.  Three roots lie at
        # the cap, which read r(1) as well, so 2.68 evaluations per root,
        # where the probe made 3.28.
        steps = [solve_lambda_star(K, db_to_linear(power_db)).iterations
                 for K in GRID_USERS for power_db in GRID_POWER_DB]
        assert statistics.mean(steps) <= 2.7
        assert evaluations[0] == sum(steps) + 3
        assert round(evaluations[0] / len(steps), 2) == 2.68

    def test_mean_steps_on_the_massive_grid(self, evaluations):
        # -300 to 3050 dB: 2.01 iterations per root, at most 3, where
        # bisection of the same brackets takes 47.6, ITP steps took 8.7,
        # Newton from the closed-form end 4.1, from two map steps 3.19 and
        # with the probe 2.24.  Above lam = 512, from 2200 dB up, the floor
        # certifies 12 of the 18 roots and the probe settles 6.  Three of
        # the powers are pinned to 1 with 0 iterations and 2 evaluations,
        # r(hi) and r(1): 2.10 evaluations per root, where the probe
        # everywhere made 2.34.
        steps = [solve_lambda_massive(db_to_linear(pi_db)).iterations
                 for pi_db in MASSIVE_POWER_DB]
        assert statistics.mean(steps) <= 2.05
        assert max(steps) <= 3
        assert evaluations[0] == sum(steps) + 6
        assert round(evaluations[0] / len(steps), 2) == 2.10

    def test_mean_steps_on_the_default_sweeps(self, evaluations):
        # Every curve of DEFAULT_USERS on the default range at 0.02 dB, the
        # figure and curve commands' finest grid: 3.89 evaluations per
        # root, at most 5, where the probe made 4.64, r(1) everywhere 5.64
        # and two map steps 5.07 iterations.
        steps = [eval_point(ChannelConfig(users, total_power=db_to_linear(pi_db))).iterations
                 for users in DEFAULT_USERS
                 for pi_db in db_grid(DEFAULT_FROM_DB, DEFAULT_TO_DB, 0.02)]
        assert len(steps) == 5 * 2001
        assert statistics.mean(steps) <= 3.9
        assert max(steps) <= 5
        assert evaluations[0] == sum(steps)
        assert round(evaluations[0] / len(steps), 2) == 3.89

    def test_inversion_calls_on_the_massive_grid(self, monkeypatch):
        # The inversion reads lam off the massive solve and calls
        # massive_parametric once, at the root's t; it rooted a residual of
        # its own with 5.4 calls, and ITP steps with 11.0.
        calls = []

        def counted(t):
            calls[-1] += 1
            return massive_parametric(t)

        monkeypatch.setattr(solvers_module, "massive_parametric", counted)
        for pi_db in MASSIVE_POWER_DB:
            calls.append(0)
            invert_massive_parametric(db_to_linear(pi_db))
        assert calls == [1] * len(MASSIVE_POWER_DB)


def _bits(result):
    """A kernel result with every float as its hex string: -0.0 and NaN compare exactly."""
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


def _frozen_pair(K, pi, lam):
    """conftest's frozen residual, with the slope of core._fixed_point."""
    return frozen_fixed_point(K, pi, lam), _fixed_point(K, pi, lam)[1]


def _kernel_results(monkeypatch, frozen, run):
    """_bits of every solve's (lam, residual, iterations) and _bisect result while run() solves.

    In call order.  frozen swaps in conftest's reference residual,
    certifies each _bisect root by the bracket of its points, and each
    solve's root by the reference residual's signs LAMBDA_TOL either side
    of it, inside [1, K], with no sign needed above a root taken at the cap.
    """
    kernel = (lambda *args: bracketed_bisect(*args)[0]) if frozen else solvers_module._bisect
    solve = solvers_module._solve
    results = []

    def logged_kernel(*args):
        result = kernel(*args)
        results.append(_bits(result))
        return result

    def logged_solve(config):
        sol = solve(config)
        results.append(_bits(sol[1:4]))
        if frozen and not sol.degenerate:
            cap = math.inf if config.users is None else float(config.users)
            pi, lam = config.total_power, sol.lambda_star
            below, above = max(1.0, lam - LAMBDA_TOL), min(cap, lam + LAMBDA_TOL)
            assert frozen_fixed_point(cap, pi, below) <= 0.0 and (
                above == cap or frozen_fixed_point(cap, pi, above) >= 0.0)
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(solvers_module, "_bisect", logged_kernel)
        patch.setattr(solvers_module, "_solve", logged_solve)
        if frozen:
            patch.setattr(solvers_module, "_fixed_point", _frozen_pair)
        run()
    return results


def _sample_box():
    K, P = draw_samples(SampleSpec(seed=42, n_samples=2000))
    for k, p in zip(K.tolist(), P.tolist()):
        solve_lambda_star(int(k), p)


class TestBitIdentity:
    """The root kernels repeat their reference's floats exactly.

    Every solve and every _bisect root of a peak search is repeated bit for
    bit on conftest's frozen residual, each certified by its signs.
    """

    @pytest.mark.parametrize("run, floor", [
        pytest.param(lambda: [solve_lambda_star(K, db_to_linear(power_db))
                              for K in GRID_USERS for power_db in GRID_POWER_DB], 51,
                     id="oracle-grid"),
        pytest.param(lambda: [solve_lambda_massive(db_to_linear(pi_db))
                              for pi_db in MASSIVE_POWER_DB], 51, id="massive-grid"),
        pytest.param(lambda: [invert_massive_parametric(db_to_linear(pi_db))
                              for pi_db in MASSIVE_POWER_DB], 51, id="inversion"),
        pytest.param(_sample_box, 51, id="sample-box"),
        # Four roots a search: its three solves and the descent, whose
        # probes read the frozen residual at lam = 1.
        pytest.param(lambda: [find_peak(users) for users in DEFAULT_USERS], 20,
                     id="peak-descent"),
    ])
    def test_solves_match_the_reference(self, monkeypatch, run, floor):
        # Every solve's (lam, residual, iterations) and every (x, fn(x),
        # iterations) of the peak searches' descent.
        new = _kernel_results(monkeypatch, False, run)
        assert len(new) >= floor
        assert new == _kernel_results(monkeypatch, True, run)

    def test_residual_matches_the_reference(self):
        lams = [1.0, 1.5, 2.0, 7.25, 1e3, 1e300]
        for K in (2.0, 10.0, 1e15, math.inf):
            for pi in (1e-30, 1e-9, 0.5, 5.38, 1e9, 1e307):
                assert ([_fixed_point(K, pi, lam)[0].hex() for lam in lams]
                        == [frozen_fixed_point(K, pi, lam).hex() for lam in lams])


class TestSolverSettings:
    def test_defaults(self):
        # The fixed tolerances every solve and peak search uses.
        assert LAMBDA_TOL == 1e-12
        assert MAX_ITER == 200


class TestFiniteSolver:
    def test_three_user_anchor(self):
        sol = solve_lambda_star(3, 10.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_K3_P10, abs=1e-8)

    def test_anchor_agrees_with_fresh_grid_scan(self):
        # Re-derive the root here with a dense sign scan so the frozen
        # constant is not the only witness.
        scanned = sign_scan_root(3, 10.0, 10**7, 1e-9)
        assert scanned == pytest.approx(LAMBDA_K3_P10, abs=2e-9)

    def test_two_user_unit_power_against_scan(self):
        sol = solve_lambda_star(2, 1.0)
        scanned = sign_scan_root(2, 1.0, 10**6, 1e-9)
        assert sol.lambda_star == pytest.approx(scanned, abs=2e-9)
        assert 1.0 < sol.lambda_star < 2.0

    @pytest.mark.parametrize("K, P", [(2, 1.0), (3, 10.0), (7, 0.04), (100, 1.0)])
    def test_solution_fields_consistent(self, evaluated, K, P):
        sol = solve_lambda_star(K, P)
        pi = sol.config.total_power
        assert 1.0 <= sol.lambda_star <= K
        assert abs(raw_residual(sol.lambda_star, K, P)) <= 1e-10
        # The residual at the last evaluated point, whose Newton point, less
        # than LAMBDA_TOL/4 away, is the root: evaluating the root itself
        # would cost the evaluation the slope floor saves.
        assert len(evaluated) == sol.iterations
        assert sol.residual == _fixed_point(float(K), pi, evaluated[-1])[0]
        assert abs(sol.lambda_star - evaluated[-1]) < 0.25 * LAMBDA_TOL
        assert sol.capacity_nofb == math.log1p(pi)
        assert sol.capacity_fb == math.log1p(pi * sol.lambda_star)
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb
        assert sol.gain_F > 1.0
        assert sol.iterations > 0
        assert not sol.degenerate

    def test_hundred_user_anchor(self):
        sol = solve_lambda_star(100, 1.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_K100_P1, abs=1e-9)
        assert sol.gain_F == pytest.approx(F_K100_P1, abs=1e-9)

    def test_tiny_power_stays_exact(self):
        sol = solve_lambda_star(2, 1e-9)
        assert not sol.degenerate
        assert 1.0 < sol.lambda_star < 1.0 + 1e-6

    def test_vanishing_power_degenerates(self):
        # At -200 dB the residual is exactly 0 at lam = 1 and cannot
        # separate it from the root.
        sol = solve_lambda_star(2, 1e-20)
        assert sol.degenerate
        assert sol.lambda_star == 1.0
        assert sol.iterations == 0
        assert sol.capacity_fb == sol.capacity_nofb == math.log1p(2e-20)
        assert sol.gain_F == 1.0

    def test_determinism(self):
        assert solve_lambda_star(3, 10.0) == solve_lambda_star(3, 10.0)

    def test_negated_residual_aborts_loudly(self, monkeypatch):
        # A sign-flipped residual must break the bracket guarantee and be
        # reported, never silently absorbed: it is > 0 at lam = 1 and falls,
        # which neither the degenerate pin nor the cap root accepts.
        def negated(K, pi, lam):
            r, slope = _fixed_point(K, pi, lam)
            return -r, -slope

        monkeypatch.setattr(solvers_module, "_fixed_point", negated)
        with pytest.raises(BracketError):
            solve_lambda_star(3, 10.0)
        with pytest.raises(BracketError):
            solve_lambda_massive(5.38)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # The root takes 4 evaluations here, the one at the upper end
        # included.  The Newton steps stop at 3 and leave it to _bisect,
        # whose 3 halvings of [1, 3] raise with the bracket they leave.
        monkeypatch.setattr(solvers_module, "MAX_ITER", 3)
        message = "bracket [2.25, 2.5] is wider than 1e-12 after 3 iterations for K=3, P=10.0"
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            solve_lambda_star(3, 10.0)


class TestAcceptance:
    """A solve accepts its root by the slope floor, else by a probe, else by _bisect.

    The probe settles by the sign it reads or, where that closes no pair,
    by the slope floor at the probe.
    """

    def test_the_floor_accepts_an_unevaluated_newton_point(self, evaluated):
        sol = solve_lambda_massive(1000.0)
        assert sol.iterations == len(evaluated) == 3
        assert sol.lambda_star not in evaluated

    @pytest.mark.parametrize("pi_db", [2250.0, 2700.0, 3000.0])
    def test_a_probe_closes_a_pair_where_the_floor_cannot(self, evaluated, pi_db):
        # Above lam = 512 four ulps of lam, over the floor m ~ 1/2, come
        # close to LAMBDA_TOL, and at these powers the floor does not
        # certify the last Newton point x.  One probe LAMBDA_TOL/4 past x
        # reads the opposite sign to the point w the step left, so x lies in
        # a (-, +) pair at most LAMBDA_TOL/2 wide: the third evaluation.
        pi = db_to_linear(pi_db)
        sol = solve_lambda_massive(pi)
        w, probe = evaluated[-2:]
        (r_w, d_w), r_probe = _fixed_point(math.inf, pi, w), _fixed_point(math.inf, pi, probe)[0]
        m = _slope_floor(pi, evaluated[0])
        assert (abs(r_w) + _RESIDUAL_ULPS * math.ulp(w)) / m + abs(r_w / d_w) > LAMBDA_TOL
        assert sol.iterations == len(evaluated) == 3
        assert r_w * r_probe < 0.0 and sol.residual == r_probe
        assert min(w, probe) < sol.lambda_star < max(w, probe)
        assert abs(w - probe) <= 0.5 * LAMBDA_TOL

    @pytest.mark.parametrize("scale", [8.0, 0.1], ids=["steep", "shallow"])
    def test_newton_brackets_what_the_steps_cannot_settle(self, monkeypatch, scale):
        # A slope 8 times too steep shortens every step, so the one below
        # LAMBDA_TOL/4 stops up to 2e-12 above the root: the floor does not
        # certify it, and the probe past it reads the same sign as the
        # point it left.  One 10 times too shallow overshoots below the root
        # and then above hi.  Either way _bisect brackets the root once, on
        # [1, hi] from scratch, within a step of bisection's count.
        want = solve_lambda_massive(10.0).lambda_star
        calls = []

        def scaled(K, pi, lam):
            r, d = _fixed_point(K, pi, lam)
            return r, scale * d

        def kernel(fn, lo, hi, *rest):
            result = bisect(fn, lo, hi, *rest)
            calls.append((lo, hi, result[2]))
            return result

        bisect = solvers_module._bisect
        monkeypatch.setattr(solvers_module, "_fixed_point", scaled)
        monkeypatch.setattr(solvers_module, "_bisect", kernel)
        sol = solve_lambda_massive(10.0)
        hi = _upper_end(ChannelConfig.massive(10.0))
        [(lo, up, steps)] = calls
        assert (lo, up) == (1.0, hi)
        assert steps <= _bisection_steps(1.0, hi, LAMBDA_TOL) + 1
        assert abs(sol.lambda_star - want) <= LAMBDA_TOL

    def test_the_floor_certifies_a_probe_that_reads_zero(self, monkeypatch, evaluated):
        # K = 10000 at 2706 dB, lam about 610, with the true residual: four
        # ulps of lam, 4.5e-13, exceed LAMBDA_TOL/4, so the floor does not
        # certify the second Newton point, and the probe past it reads r =
        # 0.0 exactly, which closes no (-, +) pair.  The floor at the probe
        # itself certifies it, (|r| + E)/m = 9.1e-13 <= LAMBDA_TOL with m =
        # 1/2: the root is the probe, after 4 evaluations, the upper end,
        # two Newton steps and the probe, and _bisect does not run.
        def refuse(*args):
            raise AssertionError("_bisect ran")

        monkeypatch.setattr(solvers_module, "_bisect", refuse)
        config = ChannelConfig.finite(10_000, total_power=db_to_linear(2706.0))
        sol = eval_point(config)
        hi = _upper_end(config)
        assert evaluated[0] == hi and 629.52 < hi < 629.53
        assert (sol.lambda_star, sol.iterations, len(evaluated)) == (610.0893302272633, 4, 4)
        pi, lam = config.total_power, sol.lambda_star
        assert lam == evaluated[-1] and sol.residual == _fixed_point(10_000.0, pi, lam)[0] == 0.0
        assert _RESIDUAL_ULPS * math.ulp(lam) / _slope_floor(pi, hi) <= LAMBDA_TOL
        assert brackets(10_000, pi, lam, LAMBDA_TOL)


class TestMassiveSolver:
    def test_large_power_anchor(self):
        sol = solve_lambda_massive(1000.0)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_1000, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_1000, abs=1e-12)
        assert sol.lambda_star == pytest.approx(9.12, abs=5e-3)
        assert sol.gain_F == pytest.approx(1.320, abs=1e-3)

    def test_small_power_anchor(self):
        sol = solve_lambda_massive(0.1)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_01, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_01, abs=1e-12)

    def test_near_peak_anchor(self):
        sol = solve_lambda_massive(5.38)
        assert sol.lambda_star == pytest.approx(LAMBDA_MASSIVE_538, abs=5e-12)
        assert sol.gain_F == pytest.approx(F_MASSIVE_538, abs=1e-12)

    def test_solution_fields_consistent(self, evaluated):
        sol = solve_lambda_massive(7.0)
        assert sol.config.is_massive
        assert sol.lambda_star > 1.0
        # r at the last evaluated point, as for a finite K.
        assert len(evaluated) == sol.iterations
        assert sol.residual == evaluated[-1] - f_of(7.0, evaluated[-1])
        assert abs(sol.lambda_star - evaluated[-1]) < 0.25 * LAMBDA_TOL
        assert abs(sol.residual) <= 1e-10
        assert sol.capacity_nofb == math.log1p(7.0)
        assert sol.capacity_fb == math.log1p(7.0 * sol.lambda_star)
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb
        assert sol.iterations > 0
        assert not sol.degenerate

    def test_bound_below_the_root_raises(self, monkeypatch):
        # Halved, the upper end at pi = 1000 is 4.56, below lam = 9.12: the
        # residual is still negative there, which is no root.
        def halved(pi, a):
            return 0.5 * _lambda_bound(pi, a)

        monkeypatch.setattr(solvers_module, "_lambda_bound", halved)
        with pytest.raises(BracketError, match=r"got \(-[^,]*, -"):
            solve_lambda_massive(1000.0)
        with pytest.raises(BracketError):
            invert_massive_parametric(1000.0)
        with pytest.raises(BracketError):
            solve_lambda_star(100, 10.0)

    def test_determinism(self):
        assert solve_lambda_massive(5.38) == solve_lambda_massive(5.38)

    def test_top_of_float_range(self):
        assert solve_lambda_massive(1e300).lambda_star == pytest.approx(
            697.322776, abs=5e-7
        )

    @pytest.mark.parametrize("pi_db", [3070.0, 3079.0, 3080.0])
    def test_overflowing_slack_raises(self, unsplit_residual, pi_db):
        # Without the log split, pi*lam overflows in the slack, which turns
        # NaN before it turns positive; that is no root.
        with pytest.raises(ConvergenceError, match="NaN"):
            solve_lambda_massive(db_to_linear(pi_db))


class TestTopOfTheFloatRange:
    """Solves where pi*lam overflows, at the root or at the bracket's upper end.

    The residual and capacity_fb take ln(pi) + ln(lam) there.
    """

    @pytest.mark.parametrize("users, power_db", [
        (2, 3077.5), (10, 3065.0), (1000, 3027.5), (None, 3052.5),
        (2, 3079.0), (None, 3082.0),
    ])
    def test_solves_with_finite_capacities(self, users, power_db):
        power = db_to_linear(power_db)
        config = (ChannelConfig.massive(power) if users is None
                  else ChannelConfig.finite(users, per_user_power=power))
        sol = eval_point(config)
        assert 1.0 < sol.lambda_star <= (users or math.inf)
        assert math.isfinite(sol.capacity_fb) and math.isfinite(sol.gain_F)
        assert sol.capacity_fb == pytest.approx(
            math.log(config.total_power) + math.log(sol.lambda_star), rel=1e-15)
        assert 1.0 < sol.gain_F < 1.01

    def test_peak_search_reaches_the_top(self):
        # At 3079 dB, t = pi*lam lies within 1 dB of the largest float.
        wide = find_peak(2, 0.0, 3079.0)
        assert wide.pi_star_db == pytest.approx(find_peak(2).pi_star_db, abs=1e-9)

    def test_cap_root(self):
        # K - lam is about 1e-25 at the root, far below the float spacing at
        # 2: the residual is 0 at the cap, which is taken as the root.
        sol = solve_lambda_star(2, db_to_linear(500.0))
        assert sol.lambda_star == 2.0
        assert sol.residual <= 0.0 and not sol.degenerate
        assert sol.gain_F == sol.capacity_fb / sol.capacity_nofb


class TestParametricCrossCheck:
    def test_two_routes_agree(self):
        # The closed-form parametrization at the inversion's t must land on
        # the fixed-point solve's curve to solver precision.
        for k in range(100):
            pi = 10.0 ** (-3.0 + 6.0 * k / 99.0)
            lam_fixed = solve_lambda_massive(pi).lambda_star
            t, lam_param = invert_massive_parametric(pi)
            assert abs(lam_fixed - lam_param) <= 1e-11
            assert abs(lam_fixed - lam_param) <= 1e-9 * lam_param
            assert t >= pi

    def test_inversion_hits_requested_power(self):
        from macgain.core import massive_parametric

        for pi in (1e-3, 0.1, 5.38, 1000.0):
            t, lam = invert_massive_parametric(pi)
            pi_back, lam_back = massive_parametric(t)
            assert pi_back == pytest.approx(pi, rel=1e-9, abs=1e-12)
            assert lam_back == lam

    def test_rejects_nonpositive_power(self):
        # Both massive routes validate the power the way ChannelConfig does.
        for solve in (solve_lambda_massive, invert_massive_parametric):
            for pi in (0.0, -1.0, math.nan, math.inf):
                message = f"total power must be a positive finite power, got {pi!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    solve(pi)

    def test_top_of_float_range(self):
        t, lam = invert_massive_parametric(1e300)
        assert lam == pytest.approx(697.322776, abs=5e-7)
        assert lam == pytest.approx(solve_lambda_massive(1e300).lambda_star, rel=1e-9)

    @pytest.mark.parametrize("pi_db", [3051.5, 3053.0, 3054.0, 3054.035898])
    def test_clipped_upper_end_at_the_top(self, pi_db):
        # t is about 1e308 at the root.  At the last power pi*lam overflows
        # at the bracket's upper end, but not at the root, so t stays finite.
        pi = db_to_linear(pi_db)
        t, lam = invert_massive_parametric(pi)
        assert math.isfinite(t)
        assert massive_certified(pi, lam, 1e-12)
        assert lam == pytest.approx(solve_lambda_massive(pi).lambda_star, rel=1e-12)

    @pytest.mark.parametrize("pi_db", [3055.0, 3080.0])
    def test_overflowing_overshoot_raises(self, pi_db):
        # t = pi*lam overflows at the massive root: the root's t is beyond
        # the float range, and the power is refused by name.
        pi = db_to_linear(pi_db)
        with pytest.raises(ValueError, match=re.escape(f"total power {pi!r} is beyond")):
            invert_massive_parametric(pi)


class TestEvalPoint:
    def test_dispatches_finite(self):
        sol = eval_point(ChannelConfig.finite(100, per_user_power=1.0))
        assert sol.lambda_star == pytest.approx(LAMBDA_K100_P1, abs=1e-9)

    def test_dispatches_massive(self):
        direct = solve_lambda_massive(1000.0)
        via_config = eval_point(ChannelConfig.massive(1000.0))
        assert via_config == direct

    def test_total_power_entry(self):
        sol = eval_point(ChannelConfig.finite(2, total_power=2e-9))
        assert not sol.degenerate
        assert sol.gain_F == pytest.approx(1.0, abs=1e-6)


class TestSweepCurve:
    def test_default_grid_shape(self):
        points = sweep_curve(None, -10.0, 30.0, 0.1)
        assert len(points) == 401
        assert points[0].pi_db == -10.0
        assert points[-1].pi_db == 30.0
        assert all(a.pi_db < b.pi_db for a, b in zip(points, points[1:]))

    def test_coarse_grid_shape(self):
        points = sweep_curve(3, -10.0, 30.0, 1.0)
        assert len(points) == 41
        assert all(p.users == 3 for p in points)

    def test_point_fields(self):
        points = sweep_curve(None, 30.0, 30.0, 0.1)
        assert len(points) == 1
        p = points[0]
        assert p.users is None
        assert p.pi == pytest.approx(1000.0, rel=1e-12)
        assert p.lam == pytest.approx(LAMBDA_MASSIVE_1000, abs=5e-12)
        assert p.lam_db == pytest.approx(10.0 * math.log10(p.lam), rel=1e-12)
        assert p.F == pytest.approx(F_MASSIVE_1000, abs=1e-12)

    def test_ragged_end_is_clamped(self):
        points = sweep_curve(None, -10.0, 29.95, 0.1)
        assert len(points) == 401
        assert points[-1].pi_db == 29.95

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_curve(None, 1.0, 0.0, 0.1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            sweep_curve(None, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("from_db, to_db", [(math.nan, 30.0), (0.0, math.nan)])
    def test_nan_end_is_an_empty_range(self, from_db, to_db):
        # NaN compares false both ways, so it must not pass as an ordered range.
        with pytest.raises(ValueError, match="empty sweep range"):
            sweep_curve(None, from_db, to_db, 1.0)

    @pytest.mark.parametrize("to_db", [19999.0, 19998.5])
    def test_grid_of_exactly_max_points_accepted(self, to_db):
        # Even, and ragged with the clamped end point appended.
        assert len(db_grid(0.0, to_db, 1.0)) == MAX_GRID_POINTS

    @pytest.mark.parametrize("to_db, step_db", [(19999.5, 1.0), (1999.95, 0.1)])
    def test_ragged_grid_one_past_max_rejected(self, to_db, step_db):
        # MAX_GRID_POINTS whole-step points plus the appended end point.
        with pytest.raises(ValueError, match="grid points"):
            db_grid(0.0, to_db, step_db)

    def test_massive_gain_strictly_increases(self):
        points = sweep_curve(None, -10.0, 30.0, 1.0)
        lams = [p.lam for p in points]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_more_users_dominate(self):
        grids = {
            users: sweep_curve(users, -10.0, 30.0, 2.0)
            for users in (2, 3, None)
        }
        for two, three, massive in zip(grids[2], grids[3], grids[None]):
            assert two.F < three.F < massive.F

    def test_determinism(self):
        assert sweep_curve(2, -5.0, 5.0, 0.5) == sweep_curve(2, -5.0, 5.0, 0.5)


class TestCurveParameter:
    def test_reading_at_t_gives_the_solved_point(self):
        # find_peak walks each curve on t = pi*lam, where the residual of
        # _fixed_point(K, t, 1.0) is 1 - G_K(t): 1 - r is then the power
        # gain and t/(1 - r) the power.  At every root of the oracle and
        # massive grids (all with a finite t) the reading lies within
        # 1.2e-13 of lam and 3.2e-16 relative of pi.
        configs = ([ChannelConfig(K, per_user_power=db_to_linear(power_db))
                    for K in GRID_USERS for power_db in GRID_POWER_DB]
                   + [ChannelConfig(None, total_power=db_to_linear(pi_db))
                      for pi_db in MASSIVE_POWER_DB])
        off = []
        for config in configs:
            pi, lam = config.total_power, eval_point(config).lambda_star
            t = pi * lam
            assert t < math.inf
            r, _ = _fixed_point(math.inf if config.users is None else float(config.users), t, 1.0)
            if not (abs(1.0 - r - lam) <= 2.0 * LAMBDA_TOL
                    and abs(t / (1.0 - r) - pi) <= 1e-11 * pi):
                off.append((config, lam, r))
        assert off == []


class TestFindPeak:
    def test_massive_peak(self):
        peak = find_peak(None)
        assert peak.users is None
        assert peak.pi_star == pytest.approx(5.38, abs=0.05)
        assert peak.F_star == pytest.approx(F_MASSIVE_538, abs=1e-4)
        assert peak.F_star >= F_MASSIVE_538 - 1e-12
        assert peak.lambda_at_peak == pytest.approx(LAMBDA_MASSIVE_538, abs=2e-2)

    def test_two_user_peak_against_brute_force(self):
        oracle_db, oracle_F = brute_peak_k2()
        # The independent grid maximum pins both coordinates.
        assert oracle_db == pytest.approx(7.104, abs=1.5e-3)
        assert oracle_F == pytest.approx(1.1903994, abs=5e-7)
        peak = find_peak(2)
        assert peak.pi_star_db == pytest.approx(oracle_db, abs=2e-3)
        assert peak.F_star == pytest.approx(oracle_F, abs=1e-7)

    def test_ten_user_peak(self):
        peak = find_peak(10)
        assert peak.pi_star_db == pytest.approx(7.2375, abs=2e-3)
        assert peak.F_star == pytest.approx(1.4458875, abs=1e-6)

    @staticmethod
    def _search(monkeypatch, users, *range_db):
        """Checks find_peak(users, *range_db); returns its _bisect's final g and the peak."""
        searched = []
        kernel = solvers_module._bisect

        def logged(fn, *args):
            result = kernel(fn, *args)
            if getattr(fn, "__name__", None) == "descent":  # not a solve's fallback
                searched.append(result)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(solvers_module, "_bisect", logged)
            peak = find_peak(users, *range_db)
        [(t_db, g, _)] = searched
        # The search ends at a t on the dB axis; the curve read there in
        # closed form gives the peak's power.
        r, _ = _fixed_point(math.inf if users is None else float(users), db_to_linear(t_db), 1.0)
        assert peak.pi_star_db == linear_to_db(db_to_linear(t_db) / (1.0 - r))
        assert peak.pi_star == db_to_linear(peak.pi_star_db)
        assert 1.0 < peak.F_star < 2.0
        # The final bracket: F rises at its left end and does not rise at
        # its right, which in pi_db is no wider than LAMBDA_TOL, as in t_db;
        # the peak is the end with the smaller |g|.
        left, right = peak.bracket_evidence
        assert left[1] < 0.0 <= right[1]
        assert peak.pi_star_db == (left if -left[1] <= right[1] else right)[0]
        assert right[0] - left[0] <= LAMBDA_TOL
        return g, peak

    def test_result_invariants(self, monkeypatch):
        # g reads exactly 0 at a midpoint, which becomes the bracket's upper
        # end like any g > 0; the search narrows below it, and the zero is
        # the end with the smaller |g|.  The evidence is 5.4e-13 dB wide in
        # pi_db.  K = 7 on 0..20 dB is one such search.
        g, peak = self._search(monkeypatch, 7, 0.0, 20.0)
        assert g == 0.0
        assert (peak.pi_star_db, peak.F_star) == (7.219099082621828, 1.4110748682212906)
        assert peak.bracket_evidence == ((7.219099082621284, -1.509903313490213e-14),
                                         (7.219099082621828, 0.0))

    def test_result_invariants_on_a_bracket(self, monkeypatch):
        # No g reads 0: the search ends on a bracket at most LAMBDA_TOL wide
        # in t_db, 5.2e-13 dB in pi_db, and the peak is the end with the
        # smaller |g|.  K = 10 on the default range is one such search, as
        # its CLI golden shows.
        g, _ = self._search(monkeypatch, 10)
        assert g != 0.0

    def test_peak_on_edge_raises(self):
        with pytest.raises(NoPeakError):
            find_peak(None, -10.0, 0.0)
        with pytest.raises(NoPeakError):
            find_peak(None, 20.0, 30.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            find_peak(None, 5.0, 5.0)

    def test_determinism(self):
        assert find_peak(2) == find_peak(2)

    def test_solves_its_peak_once(self, monkeypatch):
        # Three solves a search: from_db and to_db, to map the range to t,
        # and the peak's power; the probes in between solve nothing.  The
        # root of roots this replaced solved at every probe, up to 15 times
        # on the default range, and the 0.1 dB scan and golden section
        # before it 420 times.
        solved = []

        def counted(config):
            solved.append(config.total_power)
            return eval_point(config)

        monkeypatch.setattr(solvers_module, "eval_point", counted)
        for users in DEFAULT_USERS:
            solved.clear()
            peak = find_peak(users)
            assert solved == [db_to_linear(DEFAULT_FROM_DB), db_to_linear(DEFAULT_TO_DB),
                              peak.pi_star]

    @pytest.mark.parametrize("from_db, to_db", [(-300.0, 3000.0), (0.0, 3082.0),
                                                (-200.0, 30.0), (DEFAULT_FROM_DB, DEFAULT_TO_DB)])
    def test_wide_ranges_cost_few_solves(self, monkeypatch, from_db, to_db):
        # Residual evaluations a search: one a probe of the curve at t, at
        # both ends of [t_lo, t_hi] and at each of bisection's
        # ceil(log2((t_hi - t_lo)/LAMBDA_TOL)) steps, 46 to 52 on these
        # ranges, and 8 to 13 for its three solves: 56 to 65 in all.  The
        # secant steps that bisection replaced took 24 to 35; probing by a
        # solve and re-reading r' at each root took 71 to 171.
        calls, steps = [], []
        residual, kernel = solvers_module._fixed_point, solvers_module._bisect

        def counted(K, pi, lam):
            calls.append(lam)
            return residual(K, pi, lam)

        def logged(fn, lo, hi, *rest):
            result = kernel(fn, lo, hi, *rest)
            steps.append(result[2])
            assert result[2] <= _bisection_steps(lo, hi, LAMBDA_TOL)
            return result

        monkeypatch.setattr(solvers_module, "_fixed_point", counted)
        monkeypatch.setattr(solvers_module, "_bisect", logged)
        counts = {}
        for users in (2, 3, 10, 100, 10**6, None):
            calls.clear()
            steps.clear()
            find_peak(users, from_db, to_db)
            [searched] = steps
            # No solve beyond the three, at most 5 evaluations each.
            assert len(calls) - searched - 2 <= 15
            counts[users] = len(calls)
        assert max(counts.values()) <= 65, counts

    @pytest.mark.parametrize("users, F_floor", [
        (2, 1.190399433042081),
        (3, 1.2805127560396978),
        (10, 1.445887514235721),
        (100, 1.527463660495402),
        (None, 1.537332661580568),
    ])
    def test_no_lower_than_the_scan_and_golden_section(self, users, F_floor):
        # F* as a 0.1 dB scan refined by golden section to 1e-4 dB finds it;
        # the slope root must not do worse.
        assert find_peak(users).F_star >= F_floor

    @pytest.mark.parametrize("users", [2, 10, 10**6, None])
    def test_wide_range_finds_the_same_peak(self, monkeypatch, users):
        # Below about -115 dB the solve cannot tell lam from 1 and F is flat
        # at 1; that region must count as below the peak, or the search
        # settles there.  At the top, pi*lam overflows and t is clipped just
        # below the largest float.  Every range ends on evidence at most
        # LAMBDA_TOL wide around the peak (_search).
        default = find_peak(users)
        for range_db in ((-300.0, 3000.0), (0.0, 3082.0), (-200.0, 30.0),
                         (DEFAULT_FROM_DB, 3082.54)):
            self._search(monkeypatch, users, *range_db)
            wide = find_peak(users, *range_db)
            assert wide.pi_star_db == pytest.approx(default.pi_star_db, abs=1e-12)
            assert wide.F_star == pytest.approx(default.F_star, rel=1e-14)

    def test_result_is_frozen(self):
        # Every record is a named tuple: no field can be reassigned and no
        # attribute added.
        records = [
            find_peak(2),
            sweep_curve(None, 0.0, 0.0, 0.1)[0],
            solve_lambda_star(2, 1.0),
            ChannelConfig.massive(1.0),
            SampleSpec(seed=0, n_samples=1),
            BoundReport("demo", 1, 0, 0.0, ""),
        ]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 2.0)
            with pytest.raises(AttributeError):
                record.extra = 2.0
