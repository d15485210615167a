"""Command-line front end: solve, curve, peak, verify, figure.

Exit codes: 0 on success, 1 when a computation or verification fails,
2 on usage errors (argparse's convention).  All emitted text uses "\\n"
line endings and locale-independent number formatting, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .core import ChannelConfig, _check_users, db_to_linear, linear_to_db
from .solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    SCAN_STEP_DB,
    BracketError,
    ConvergenceError,
    CurvePoint,
    check_db_grid,
    eval_point,
    find_peak,
    sweep_curve,
)
from .svgplot import line_chart

__all__ = ["main", "build_parser", "CSV_HEADER"]

CSV_HEADER = "pi_db,pi,K,lambda,lambda_db,F"

_LN2 = math.log(2.0)

_DEFAULT_FIGURE_USERS = "2,3,10,100,massive"


def _db_arg(text: str) -> float:
    """A dB value whose linear power is a positive finite float."""
    value = float(text)
    try:
        power = db_to_linear(value)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text} dB has no positive finite linear power"
        )
    return value


def _step_arg(text: str) -> float:
    """A finite dB width; check_db_grid refuses steps that are not > 0."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} dB is not a finite step")
    return value


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be in [1, 17]")
    return value


def _users_arg(text: str) -> int:
    value = int(text)
    try:
        return _check_users(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _users_list_arg(text: str) -> tuple[int | None, ...]:
    users: list[int | None] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("massive", "inf"):
            users.append(None)
        else:
            users.append(_users_arg(token))
    if not users:
        raise argparse.ArgumentTypeError("need at least one user count")
    return tuple(users)


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _users_csv_token(users: int | None) -> str:
    return "inf" if users is None else str(users)


def _users_json_value(users: int | None) -> "int | str":
    return "massive" if users is None else users


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _selected_users(args: argparse.Namespace) -> int | None:
    return None if args.massive else args.users


def run_solve(args: argparse.Namespace) -> int:
    if args.massive and args.power_db is not None:
        args.parser.error("the massive limit takes --total-power-db only")
    users = _selected_users(args)
    if users is None:
        config = ChannelConfig.massive(db_to_linear(args.total_power_db))
    elif args.total_power_db is not None:
        config = ChannelConfig.finite(
            users, total_power=db_to_linear(args.total_power_db)
        )
    else:
        config = ChannelConfig.finite(
            users, per_user_power=db_to_linear(args.power_db)
        )
    sol = eval_point(config)
    p = args.precision
    if args.format == "json":
        payload: dict = {
            "users": _users_json_value(users),
            "pi": config.total_power,
            "pi_db": linear_to_db(config.total_power),
            "lambda": sol.lambda_star,
            "lambda_db": linear_to_db(sol.lambda_star),
            "capacity_nofb_nats": sol.capacity_nofb,
            "capacity_fb_nats": sol.capacity_fb,
            "gain_F": sol.gain_F,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "degenerate": sol.degenerate,
        }
        if args.bits:
            payload["capacity_nofb_bits"] = sol.capacity_nofb / _LN2
            payload["capacity_fb_bits"] = sol.capacity_fb / _LN2
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"lambda_star = {_fmt(sol.lambda_star, p)}",
            f"lambda_star_db = {_fmt(linear_to_db(sol.lambda_star), p)}",
            f"capacity_nofb_nats = {_fmt(sol.capacity_nofb, p)}",
            f"capacity_fb_nats = {_fmt(sol.capacity_fb, p)}",
        ]
        if args.bits:
            lines.append(f"capacity_nofb_bits = {_fmt(sol.capacity_nofb / _LN2, p)}")
            lines.append(f"capacity_fb_bits = {_fmt(sol.capacity_fb / _LN2, p)}")
        lines.append(f"gain_F = {_fmt(sol.gain_F, p)}")
        if sol.degenerate:
            lines.append("degenerate = true")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


def _point_dict(pt: CurvePoint) -> dict:
    return {
        "pi_db": pt.pi_db,
        "pi": pt.pi,
        "K": _users_json_value(pt.users),
        "lambda": pt.lam,
        "lambda_db": pt.lam_db,
        "F": pt.F,
    }


def _check_grid(args: argparse.Namespace, step_db: float) -> None:
    """Turn a range or grid size the solvers would refuse into a usage error."""
    try:
        check_db_grid(args.from_db, args.to_db, step_db)
    except ValueError as exc:
        args.parser.error(str(exc))


def _sweeps(
    args: argparse.Namespace, users_list: tuple[int | None, ...]
) -> list[tuple[int | None, list[CurvePoint]]]:
    _check_grid(args, args.step_db)
    return [
        (users, sweep_curve(users, args.from_db, args.to_db, args.step_db))
        for users in users_list
    ]


def _chart(curves: list[tuple[int | None, list[CurvePoint]]], pfactor: bool) -> str:
    return line_chart(
        [
            (
                "massive" if users is None else f"K={users}",
                [(pt.pi_db, pt.lam_db if pfactor else pt.F) for pt in curve],
            )
            for users, curve in curves
        ],
        title="Power gain factor" if pfactor else "Capacity gain factor",
        x_label="total power pi (dB)",
        y_label="lambda (dB)" if pfactor else "F",
    )


def run_curve(args: argparse.Namespace) -> int:
    curves = _sweeps(args, (_selected_users(args),))
    points = curves[0][1]
    p = args.precision
    if args.format == "csv":
        rows = [CSV_HEADER]
        for pt in points:
            rows.append(
                ",".join(
                    (
                        _fmt(pt.pi_db, p),
                        _fmt(pt.pi, p),
                        _users_csv_token(pt.users),
                        _fmt(pt.lam, p),
                        _fmt(pt.lam_db, p),
                        _fmt(pt.F, p),
                    )
                )
            )
        text = "\n".join(rows) + "\n"
    elif args.format == "json":
        text = json.dumps({"points": [_point_dict(pt) for pt in points]}, indent=2)
        text += "\n"
    else:
        text = _chart(curves, pfactor=False)
    _write_output(text, args.out)
    return 0


def run_peak(args: argparse.Namespace) -> int:
    if args.from_db >= args.to_db:
        args.parser.error("--from-db must be below --to-db")
    _check_grid(args, SCAN_STEP_DB)
    users = _selected_users(args)
    peak = find_peak(users, args.from_db, args.to_db)
    p = args.precision
    if args.format == "json":
        payload = {
            "users": _users_json_value(users),
            "pi_star": peak.pi_star,
            "pi_star_db": peak.pi_star_db,
            "F_star": peak.F_star,
            "lambda_at_peak": peak.lambda_at_peak,
            "bracket_evidence": [list(pair) for pair in peak.bracket_evidence],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"pi_star = {_fmt(peak.pi_star, p)}\n"
            f"pi_star_db = {_fmt(peak.pi_star_db, p)}\n"
            f"F_star = {_fmt(peak.F_star, p)}\n"
            f"lambda_at_peak = {_fmt(peak.lambda_at_peak, p)}\n"
        )
    _write_output(text, args.out)
    return 0


def run_verify(args: argparse.Namespace) -> int:
    # Imported here so that only verify pays for loading numpy.
    from .verify import SampleSpec, run_suite, suite_passed

    try:
        spec = SampleSpec(seed=args.seed, n_samples=args.samples)
    except ValueError as exc:
        args.parser.error(str(exc))
    start = time.perf_counter()
    reports = run_suite(spec, sabotage=args.sabotage)
    elapsed = time.perf_counter() - start
    ok = suite_passed(reports)
    if args.format == "json":
        payload = {
            "passed": ok,
            "elapsed_s": elapsed,
            "reports": [
                {
                    "check_name": r.check_name,
                    "samples": r.samples,
                    "violations": r.violations,
                    "worst_slack": r.worst_slack,
                    "witness": r.witness,
                }
                for r in reports
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [r.line() for r in reports]
        total = sum(r.violations for r in reports)
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"suite: {verdict} ({len(reports)} checks, {total} violations)")
        text = "\n".join(lines) + "\n"
        # Wall time varies run to run, so it stays off stdout.
        print(f"macgain: verify took {elapsed:.2f} s", file=sys.stderr)
    _write_output(text, args.out)
    return 0 if ok else 1


def run_figure(args: argparse.Namespace) -> int:
    curves = _sweeps(args, args.users)
    p = args.precision
    pfactor = args.which == "pfactor"
    if args.format == "csv":
        lines = ["# columns: pi_db,lambda,lambda_db" if pfactor else "# columns: pi_db,F"]
        for users, curve in curves:
            lines.append(f"# K={_users_csv_token(users)}")
            for pt in curve:
                if pfactor:
                    lines.append(
                        f"{_fmt(pt.pi_db, p)},{_fmt(pt.lam, p)},{_fmt(pt.lam_db, p)}"
                    )
                else:
                    lines.append(f"{_fmt(pt.pi_db, p)},{_fmt(pt.F, p)}")
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        series = [
            {"K": _users_json_value(users), "points": [_point_dict(pt) for pt in curve]}
            for users, curve in curves
        ]
        text = json.dumps({"which": args.which, "series": series}, indent=2) + "\n"
    else:
        text = _chart(curves, pfactor)
    _write_output(text, args.out)
    return 0


def _add_users_choice(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--users", type=_users_arg, metavar="K",
                       help="finite user count (K >= 2)")
    group.add_argument("--massive", action="store_true",
                       help="massive-user limit (K -> infinity)")


def _add_output_opts(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0],
                        help=f"output format (default: {formats[0]})")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")


def _add_number_opts(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    _add_output_opts(parser, formats)
    parser.add_argument("--precision", type=_precision_arg, default=9,
                        metavar="DIGITS",
                        help="significant digits for rendered numbers (1..17)")


def _add_range_opts(parser: argparse.ArgumentParser, with_step: bool) -> None:
    parser.add_argument("--from-db", type=_db_arg, default=DEFAULT_FROM_DB,
                        metavar="DB", help="sweep start in dB (default: -10)")
    parser.add_argument("--to-db", type=_db_arg, default=DEFAULT_TO_DB,
                        metavar="DB", help="sweep end in dB (default: 30)")
    if with_step:
        parser.add_argument("--step-db", type=_step_arg, default=0.1, metavar="DB",
                            help="grid step in dB (default: 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macgain",
        description="Feedback capacity gains for the Gaussian multiple-access "
                    "channel: power gain factor, capacity gain factor, curve "
                    "sweeps, peak search, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one operating point")
    _add_users_choice(solve)
    power = solve.add_mutually_exclusive_group(required=True)
    power.add_argument("--power-db", type=_db_arg, metavar="DB",
                       help="per-user power in dB (finite users only)")
    power.add_argument("--total-power-db", type=_db_arg, metavar="DB",
                       help="total power in dB")
    solve.add_argument("--bits", action="store_true",
                       help="also render capacities in bits")
    _add_number_opts(solve, ("text", "json"))
    solve.set_defaults(func=run_solve, parser=solve)

    curve = sub.add_parser("curve", help="sweep one gain curve over a dB range")
    _add_users_choice(curve)
    _add_range_opts(curve, with_step=True)
    _add_number_opts(curve, ("csv", "json", "svg"))
    curve.set_defaults(func=run_curve, parser=curve)

    peak = sub.add_parser("peak", help="locate the maximum capacity gain factor")
    _add_users_choice(peak)
    _add_range_opts(peak, with_step=False)
    _add_number_opts(peak, ("text", "json"))
    peak.set_defaults(func=run_peak, parser=peak)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--seed", type=int, default=42,
                        help="random sample seed (default: 42)")
    verify.add_argument("--samples", type=int, default=10_000,
                        help="number of random (K, P) samples (default: 10000)")
    verify.add_argument("--sabotage", action="store_true",
                        help="negative control: evaluate checks off the root")
    _add_output_opts(verify, ("text", "json"))
    verify.set_defaults(func=run_verify, parser=verify)

    figure = sub.add_parser("figure", help="emit multi-series figure data")
    figure.add_argument("--which", choices=("pfactor", "cfactor"), required=True,
                        help="pfactor: power gain curves; cfactor: capacity "
                             "gain curves")
    figure.add_argument("--users", type=_users_list_arg,
                        default=_users_list_arg(_DEFAULT_FIGURE_USERS),
                        metavar="LIST",
                        help="comma-separated user counts, 'massive' allowed "
                             f"(default: {_DEFAULT_FIGURE_USERS})")
    _add_range_opts(figure, with_step=True)
    _add_number_opts(figure, ("csv", "json", "svg"))
    figure.set_defaults(func=run_figure, parser=figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BracketError, ConvergenceError, ValueError) as exc:
        # NoPeakError is a ValueError; every solver failure exits 1 here.
        print(f"macgain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
