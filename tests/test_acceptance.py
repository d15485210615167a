"""Acceptance gate: the eleven headline claims, each timed and logged.

Each test prints one pass/fail line through the acceptance_log fixture and
then asserts, so the terminal summary always carries the full scorecard.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import raw_residual, scalar_derivative_roots, sign_scan_root
from reference import root
from macgain.core import linear_to_db
from macgain.solvers import (
    find_peak,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)
from macgain.verify import (
    SampleSpec,
    check_derivative,
    check_monotone_unimodal,
    draw_samples,
    point_bound_slacks,
)

SAMPLE_PLAN = SampleSpec(seed=42, n_samples=10_000)


@pytest.fixture(scope="module")
def sampled_solutions():
    K, P = draw_samples(SAMPLE_PLAN)
    pairs = [(int(k), float(p)) for k, p in zip(K, P)]
    start = time.perf_counter()
    sols = [solve_lambda_star(K, P) for K, P in pairs]
    elapsed = time.perf_counter() - start
    return pairs, sols, elapsed


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_massive_peak(acceptance_log):
    find_peak(None, -10.0, 30.0)
    peak, elapsed = timed(lambda: find_peak(None, -10.0, 30.0))
    ok = (
        abs(peak.F_star - 1.537) <= 1e-3
        and abs(peak.pi_star - 5.38) <= 0.05
        and abs(peak.pi_star_db - 7.3) <= 0.05
        and elapsed < 1.0
    )
    acceptance_log(
        f"criterion 1 (massive peak): {'PASS' if ok else 'FAIL'}; "
        f"F*={peak.F_star:.6f} (1.537 +/- 0.001), "
        f"pi*={peak.pi_star:.4f} (5.38 +/- 0.05), "
        f"pi*_db={peak.pi_star_db:.4f} (7.3 +/- 0.05), {elapsed:.3f} s"
    )
    assert ok


def test_criterion_2_ten_user_peak(acceptance_log):
    peak, elapsed = timed(lambda: find_peak(10, -10.0, 30.0))
    ok = (
        abs(peak.F_star - 1.446) <= 1e-3
        and abs(peak.pi_star_db - 7.2) <= 0.1
        and elapsed < 1.0
    )
    acceptance_log(
        f"criterion 2 (ten-user peak): {'PASS' if ok else 'FAIL'}; "
        f"F*={peak.F_star:.6f} (1.446 +/- 0.001), "
        f"pi*_db={peak.pi_star_db:.4f} (7.2 +/- 0.1), {elapsed:.3f} s"
    )
    assert ok


def test_criterion_3_massive_anchor_30db(acceptance_log):
    solve_lambda_massive(1000.0)
    sol, elapsed = timed(lambda: solve_lambda_massive(1000.0))
    ok = (
        abs(sol.lambda_star - 9.119) <= 1e-3
        and abs(sol.gain_F - 1.320) <= 1e-3
        and elapsed < 0.01
    )
    acceptance_log(
        f"criterion 3 (massive anchor at 30 dB): {'PASS' if ok else 'FAIL'}; "
        f"lambda={sol.lambda_star:.6f} (9.119 +/- 0.001), "
        f"F={sol.gain_F:.6f} (1.320 +/- 0.001), {elapsed * 1e3:.2f} ms"
    )
    assert ok


def test_criterion_4_small_power_anchor(acceptance_log):
    solve_lambda_massive(0.1)
    sol, elapsed = timed(lambda: solve_lambda_massive(0.1))
    ok = (
        abs(sol.gain_F - 1.048) <= 1e-3
        and sol.gain_F <= 11.0 / 9.0
        and elapsed < 0.01
    )
    acceptance_log(
        f"criterion 4 (small-power anchor): {'PASS' if ok else 'FAIL'}; "
        f"F(0.1)={sol.gain_F:.6f} (1.048 +/- 0.001, cap 11/9), "
        f"{elapsed * 1e3:.2f} ms"
    )
    assert ok


def test_criterion_5_hundred_user_point(acceptance_log):
    solve_lambda_star(100, 1.0)
    sol, elapsed = timed(lambda: solve_lambda_star(100, 1.0))
    lam_db = linear_to_db(sol.lambda_star)
    ok = (
        abs(lam_db - 8.0) <= 0.3
        and abs(sol.gain_F - 1.40) <= 0.03
        and elapsed < 0.01
    )
    acceptance_log(
        f"criterion 5 (hundred users at 0 dB): {'PASS' if ok else 'FAIL'}; "
        f"lambda_db={lam_db:.4f} (8.0 +/- 0.3), "
        f"F={sol.gain_F:.6f} (1.40 +/- 0.03), {elapsed * 1e3:.2f} ms"
    )
    assert ok


def test_criterion_6_global_gain_bounds(acceptance_log, sampled_solutions):
    _, sols, elapsed = sampled_solutions
    F_values = [sol.gain_F for sol in sols]
    F_min, F_max = min(F_values), max(F_values)
    ok = F_min >= 1.0 and F_max < 2.0 and F_max <= 1.5372 and elapsed < 10.0
    acceptance_log(
        f"criterion 6 (global bounds over {SAMPLE_PLAN.n_samples} samples): "
        f"{'PASS' if ok else 'FAIL'}; min F={F_min:.9f} (>= 1), "
        f"max F={F_max:.9f} (< 2 and <= 1.5372), {elapsed:.2f} s"
    )
    assert ok


def test_criterion_7_residual_and_sandwich(acceptance_log, sampled_solutions):
    pairs, sols, _ = sampled_solutions
    worst_res = 0.0
    in_range = True
    for (K, P), sol in zip(pairs, sols):
        lam = sol.lambda_star
        worst_res = max(worst_res, abs(raw_residual(lam, K, P)))
        in_range = in_range and 1.0 <= lam <= K
    K, P = (np.array(column) for column in zip(*pairs))
    lam = np.array([sol.lambda_star for sol in sols])
    slacks = dict(point_bound_slacks(K, P, lam))
    # The bracket cap is defined only below lam = K.
    slacks["bracket_cap"] = slacks["bracket_cap"][lam < K]
    worst_slack = min(float(np.min(slack)) for slack in slacks.values())
    ok = worst_res <= 1e-10 and in_range and worst_slack >= -1e-9
    acceptance_log(
        f"criterion 7 (residual and inequality chains): "
        f"{'PASS' if ok else 'FAIL'}; max |residual|={worst_res:.3e} "
        f"(<= 1e-10), lambda in [1, K]: {in_range}, "
        f"min chain slack={worst_slack:.3e} (>= -1e-9)"
    )
    assert ok


def test_criterion_8_derivative_consistency(acceptance_log):
    lams = scalar_derivative_roots()
    report, elapsed = timed(lambda: check_derivative(lams))
    ok = report.passed and report.samples == 56
    acceptance_log(
        f"criterion 8 (analytic slope vs central differences): "
        f"{'PASS' if ok else 'FAIL'}; {report.samples} slacks, "
        f"{report.violations} violations, worst={report.worst_slack:.3e}, "
        f"{elapsed:.3f} s"
    )
    assert ok


def test_criterion_9_curve_shapes(acceptance_log):
    users_list = (2, 3, 10, 100, None)
    curves = {u: sweep_curve(u, -10.0, 30.0, 0.1) for u in users_list}
    shapes_ok = True
    for users, curve in curves.items():
        lams = [p.lam for p in curve]
        shapes_ok = shapes_ok and all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
        diffs = [b.F - a.F for a, b in zip(curve, curve[1:])]
        signs = [d > 0.0 for d in diffs if d != 0.0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        shapes_ok = shapes_ok and flips == 1 and signs[0] and not signs[-1]
    massive = curves[None]
    dominated = all(
        m.lam >= p.lam - 1e-9
        for users in (2, 3, 10, 100)
        for p, m in zip(curves[users], massive)
    )
    F_small = solve_lambda_massive(1e-3).gain_F
    limit_pis = np.array([1e-3, 1e6])
    cross_check = check_monotone_unimodal(
        np.array([p.pi for p in massive]),
        np.array([[p.lam for p in curves[users]] for users in users_list]),
        limit_pis, np.array([solve_lambda_massive(pi).lambda_star for pi in limit_pis]),
    ).passed
    ok = shapes_ok and dominated and F_small <= 1.01 and cross_check
    acceptance_log(
        f"criterion 9 (curve shapes on the 0.1 dB grid): "
        f"{'PASS' if ok else 'FAIL'}; monotone+unimodal={shapes_ok}, "
        f"massive dominates={dominated}, F(0.001)={F_small:.6f} (<= 1.01)"
    )
    assert ok


def test_criterion_10_oracle_equivalence(acceptance_log):
    # Each half checks the solver against a root it does not share: the
    # massive fixed point lam = (1 + 1/t) ln(1+t), t = pi*lam, rooted by
    # reference.root, and a sign scan of the paper's balance residual.
    worst_rel = 0.0
    for k in range(100):
        pi = 10.0 ** (-3.0 + 6.0 * k / 99.0)
        lam = solve_lambda_massive(pi).lambda_star
        exact = root(None, pi)
        worst_rel = max(worst_rel, float(abs(lam - exact) / exact))
    scan_root = sign_scan_root(3, 10.0, 10**7, 1e-9)
    solver_root = solve_lambda_star(3, 10.0).lambda_star
    scan_diff = abs(solver_root - scan_root)
    ok = worst_rel <= 1e-9 and scan_diff <= 1e-8
    acceptance_log(
        f"criterion 10 (solver against independent oracles): {'PASS' if ok else 'FAIL'}; "
        f"max |massive root - mpmath root|={worst_rel:.3e} (<= 1e-9 rel), "
        f"|finite root - sign-scan oracle|={scan_diff:.3e} (<= 1e-8)"
    )
    assert ok


def test_criterion_11_byte_determinism(acceptance_log):
    argv = [
        sys.executable, "-m", "macgain", "curve", "--massive",
        "--from-db", "-10", "--to-db", "30", "--step-db", "0.1",
        "--format", "csv",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    rows = first.stdout.decode("utf-8").splitlines()
    ok = (
        first.stdout == second.stdout
        and len(rows) == 402
        and rows[0] == "pi_db,pi,K,lambda,lambda_db,F"
    )
    acceptance_log(
        f"criterion 11 (byte determinism of the curve sweep): "
        f"{'PASS' if ok else 'FAIL'}; {len(rows) - 1} data rows, "
        f"identical bytes={first.stdout == second.stdout}"
    )
    assert ok
