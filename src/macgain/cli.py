"""Command-line front end: solve, curve, peak, verify, figure.

Exit codes: 0 on success, 1 when a computation or verification fails,
2 on usage errors (argparse's convention).  All emitted text uses "\\n"
line endings and locale-independent number formatting, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import TextIO

from .core import ChannelConfig, _check_users, db_to_linear, linear_to_db
from .solvers import (
    DEFAULT_FROM_DB,
    DEFAULT_TO_DB,
    DEFAULT_USERS,
    BracketError,
    ConvergenceError,
    CurvePoint,
    db_grid,
    eval_point,
    find_peak,
    sweep_curve,
)

__all__ = ["main", "build_parser", "CSV_HEADER"]

CSV_HEADER = "pi_db,pi,K,lambda,lambda_db,F"

_LN2 = math.log(2.0)


def decibels(text: str) -> float:
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


def step(text: str) -> float:
    """A finite dB width; db_grid refuses steps that are not > 0."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} dB is not a finite step")
    return value


def digits(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be in [1, 17]")
    return value


def user_count(text: str) -> int:
    value = int(text)
    try:
        return _check_users(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def user_list(text: str) -> tuple[int | None, ...]:
    users: list[int | None] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("massive", "inf"):
            users.append(None)
        else:
            users.append(user_count(token))
    if not users:
        raise argparse.ArgumentTypeError("need at least one user count")
    return tuple(users)


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _users_csv_token(users: int | None) -> str:
    return "inf" if users is None else str(users)


def _users_json_value(users: int | None) -> "int | str":
    return "massive" if users is None else users


def _selected_users(args: argparse.Namespace) -> int | None:
    return None if args.massive else args.users


def _json_text(payload: dict) -> str:
    # Imported here so that only the solve, peak and verify payloads, a few
    # dozen values each, load json; point lists render through _json_points.
    import json

    return json.dumps(payload, indent=2) + "\n"


def run_solve(args: argparse.Namespace, out: TextIO) -> int:
    if args.massive and args.power_db is not None:
        args.parser.error("the massive limit takes --total-power-db only")
    users = _selected_users(args)
    if args.power_db is not None:
        config = ChannelConfig(users, per_user_power=db_to_linear(args.power_db))
    else:
        config = ChannelConfig(users, total_power=db_to_linear(args.total_power_db))
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
        text = _json_text(payload)
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
    out.write(text)
    return 0


def _json_users(users: int | None) -> str:
    return '"massive"' if users is None else repr(users)


def _json_points(users: int | None, curve: list[CurvePoint], depth: int) -> str:
    """The curve's point list, byte for byte as json.dumps(indent=2) writes it
    at `depth` levels of nesting.

    Each point is an object of the CurvePoint fields under their JSON keys,
    K as the int or "massive".  One str.format template per curve renders
    it, floats by float.__repr__, which is json's encoding of a finite
    float; every swept field is finite.  json runs its pure-Python encoder
    whenever it indents, so the template is the faster path.
    """
    pad = "\n" + "  " * depth
    keys = ("pi_db", "pi", "K", "lambda", "lambda_db", "F")
    item = pad + "  {{" + ",".join(
        f'{pad}    "{key}": ' + (_json_users(users) if name == "users" else f"{{0.{name}!r}}")
        for key, name in zip(keys, CurvePoint._fields)) + pad + "  }}"
    return "[" + ",".join(map(item.format, curve)) + pad + "]"


def _csv_rows(users: int | None, curve: list[CurvePoint], fields: tuple[str, ...],
              precision: int) -> list[str]:
    """One CSV row per point: the named CurvePoint fields, users as its token."""
    # One format string per curve renders each row in a single call.
    row = ",".join(_users_csv_token(users) if name == "users"
                   else f"{{0.{name}:.{precision}g}}" for name in fields).format
    return [row(pt) for pt in curve]


def _sweeps(
    args: argparse.Namespace, users_list: tuple[int | None, ...]
) -> list[tuple[int | None, list[CurvePoint]]]:
    # A range or grid size the solvers would refuse is a usage error.
    try:
        db_grid(args.from_db, args.to_db, args.step_db)
    except ValueError as exc:
        args.parser.error(str(exc))
    return [
        (users, sweep_curve(users, args.from_db, args.to_db, args.step_db))
        for users in users_list
    ]


def _chart(curves: list[tuple[int | None, list[CurvePoint]]], pfactor: bool) -> str:
    # Imported here so that only SVG output loads the renderer.
    from .svgplot import line_chart

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


def run_curve(args: argparse.Namespace, out: TextIO) -> int:
    curves = _sweeps(args, (_selected_users(args),))
    users, points = curves[0]
    if args.format == "csv":
        rows = [CSV_HEADER, *_csv_rows(users, points, CurvePoint._fields, args.precision)]
        text = "\n".join(rows) + "\n"
    elif args.format == "json":
        text = '{\n  "points": ' + _json_points(users, points, 1) + "\n}\n"
    else:
        text = _chart(curves, pfactor=False)
    out.write(text)
    return 0


def run_peak(args: argparse.Namespace, out: TextIO) -> int:
    if args.from_db >= args.to_db:
        args.parser.error("--from-db must be below --to-db")
    users = _selected_users(args)
    peak = find_peak(users, args.from_db, args.to_db)
    if args.format == "json":
        text = _json_text({**peak._asdict(), "users": _users_json_value(users)})
    else:
        text = "".join(f"{name} = {_fmt(getattr(peak, name), args.precision)}\n"
                       for name in ("pi_star", "pi_star_db", "F_star", "lambda_at_peak"))
    out.write(text)
    return 0


def run_verify(args: argparse.Namespace, out: TextIO) -> int:
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
        text = _json_text({
            "passed": ok,
            "elapsed_s": elapsed,
            "reports": [r._asdict() for r in reports],
        })
    else:
        lines = [r.line() for r in reports]
        total = sum(r.violations for r in reports)
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"suite: {verdict} ({len(reports)} checks, {total} violations)")
        text = "\n".join(lines) + "\n"
        # Wall time varies run to run, so it stays off stdout.
        print(f"macgain: verify took {elapsed:.2f} s", file=sys.stderr)
    out.write(text)
    return 0 if ok else 1


def run_figure(args: argparse.Namespace, out: TextIO) -> int:
    curves = _sweeps(args, args.users)
    pfactor = args.which == "pfactor"
    if args.format == "csv":
        lines = ["# columns: pi_db,lambda,lambda_db" if pfactor else "# columns: pi_db,F"]
        fields = ("pi_db", "lam", "lam_db") if pfactor else ("pi_db", "F")
        for users, curve in curves:
            lines.append(f"# K={_users_csv_token(users)}")
            lines += _csv_rows(users, curve, fields, args.precision)
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        series = ",".join(
            f'\n    {{\n      "K": {_json_users(users)},\n      "points": '
            + _json_points(users, curve, 3) + "\n    }"
            for users, curve in curves)
        text = f'{{\n  "which": "{args.which}",\n  "series": [{series}\n  ]\n}}\n'
    else:
        text = _chart(curves, pfactor)
    out.write(text)
    return 0


def _add_users_choice(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--users", type=user_count, metavar="K",
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
    parser.add_argument("--precision", type=digits, default=9,
                        metavar="DIGITS",
                        help="significant digits for rendered numbers (1..17)")


def _add_range_opts(parser: argparse.ArgumentParser, with_step: bool) -> None:
    parser.add_argument("--from-db", type=decibels, default=DEFAULT_FROM_DB,
                        metavar="DB", help="sweep start in dB (default: -10)")
    parser.add_argument("--to-db", type=decibels, default=DEFAULT_TO_DB,
                        metavar="DB", help="sweep end in dB (default: 30)")
    if with_step:
        parser.add_argument("--step-db", type=step, default=0.1, metavar="DB",
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
    power.add_argument("--power-db", type=decibels, metavar="DB",
                       help="per-user power in dB (finite users only)")
    power.add_argument("--total-power-db", type=decibels, metavar="DB",
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
    default_users = ",".join("massive" if u is None else str(u) for u in DEFAULT_USERS)
    figure.add_argument("--users", type=user_list, default=DEFAULT_USERS,
                        metavar="LIST",
                        help="comma-separated user counts, 'massive' allowed "
                             f"(default: {default_users})")
    _add_range_opts(figure, with_step=True)
    _add_number_opts(figure, ("csv", "json", "svg"))
    figure.set_defaults(func=run_figure, parser=figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is None or args.out == "-":
            return args.func(args, sys.stdout)
        # Like a shell's > PATH: created or truncated before the command runs,
        # so an unwritable path fails first and a failing command leaves it empty.
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            return args.func(args, out)
    except (BracketError, ConvergenceError, OSError, ValueError) as exc:
        # NoPeakError is a ValueError; every solver failure and every
        # unwritable --out (an OSError) exits 1 here.
        print(f"macgain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
