"""The three benchmark workloads: verify_batch, point_stream and cli_session.

Each workload is one process and a closed loop with one caller: the next
operation starts when the previous one has returned.  Work is grouped into
units that repeat whole (one verify suite, one pass over the point pool, one
CLI session cycle), so every share a run reports is exact for its seed and
repeated units must reproduce the first unit's outputs.

No workload imports the package at module level: ``setup`` does, so that the
set-up probes time the import.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Any single child process; generous, so only a hang trips it.
CHILD_TIMEOUT_S = 120


def db_to_power(db: float) -> float:
    return 10.0 ** (db / 10.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


Figures = tuple[float, float, float]


def op_figures(times) -> Figures:
    """(operations per second spent in them, median, 90th percentile) of the
    operation times of one unit."""
    return len(times) / math.fsum(times), statistics.median(times), percentile(times, 90)


def unit_medians(units: list[tuple[Figures, Figures]]) -> tuple[Figures, Figures]:
    """Medians over units of their (scaled, as measured) figures."""
    def medians(rows):
        return tuple(statistics.median(column) for column in zip(*rows))

    return medians(u[0] for u in units), medians(u[1] for u in units)


def rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """One named workload; subclasses fill in the hooks below."""

    name = ""
    # Whose peak RSS the workload reports: this process, or its children.
    rss_of = resource.RUSAGE_SELF

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Import, generate inputs and run one warm-up operation."""
        raise NotImplementedError

    def inputs(self) -> object:
        """The generated inputs, for the result's digest."""
        raise NotImplementedError

    def unit(self) -> list:
        """Run one unit untraced, as a user would, and return its outputs."""
        raise NotImplementedError

    def traced_unit(self) -> list:
        """Run one unit in this process, where the tracer can see it."""
        return self.unit()

    def check(self, outputs: list) -> tuple[int, int]:
        """(operations, operations whose output failed its check) of one unit."""
        raise NotImplementedError

    def controls_pass(self) -> bool:
        """Negative and positive controls of this workload's checks."""
        raise NotImplementedError

    def op_times(self) -> tuple[Figures, Figures]:
        """(operations per second, median latency, 90th-percentile latency) of
        the untraced loop, scaled to the reference speed and as measured.

        Each figure is a median over units of that unit's figure, so a burst
        of outside load moves one unit, not the result.
        """
        raise NotImplementedError

    def detail(self) -> dict[str, tuple[float, str]]:
        """Workload-specific wall-clock figures, printed beside the result."""
        return {}

    def layer_extras(self, outputs: list) -> dict[str, float]:
        """Per-layer metrics measured outside the tracer; absent ones read 0."""
        return {}

    def context(self) -> dict:
        """Unit and operation counts, printed beside the result."""
        return {}


# --- verify_batch ------------------------------------------------------------

VERIFY_SAMPLES = 10_000

# Speed ticks at the marks on each side of a suite, about 2 ms each.
SUITE_TICKS = 250


class VerifyBatch(Workload):
    """``macgain verify`` at its default size, in process, suite after suite."""

    name = "verify_batch"

    def setup(self) -> None:
        from macgain import verify

        self.verify = verify
        self.spec = verify.SampleSpec(self.seed, VERIFY_SAMPLES)
        verify.run_suite(self.spec)
        self.suites: list[tuple[float, float]] = []

    def inputs(self) -> object:
        return self.spec

    def unit(self) -> list:
        probe = SpeedProbe()
        probe.mark(SUITE_TICKS)
        t0 = time.perf_counter()
        reports = self.verify.run_suite(self.spec)
        elapsed = time.perf_counter() - t0
        probe.mark(SUITE_TICKS)
        self.suites.append((elapsed, probe.factors()[0]))
        return reports

    def check(self, outputs: list) -> tuple[int, int]:
        return 1, 0 if self.verify.suite_passed(outputs) else 1

    def controls_pass(self) -> bool:
        return not self.verify.suite_passed(self.verify.run_suite(self.spec, sabotage=True))

    def op_times(self):
        # One suite is one operation, so the percentiles run across suites.
        def figures(times):
            return (statistics.median(1.0 / t for t in times), statistics.median(times),
                    percentile(times, 90))

        return (figures([t * f for t, f in self.suites]),
                figures([t for t, _ in self.suites]))

    def detail(self):
        return {"verify_samples_per_s": (VERIFY_SAMPLES * self.op_times()[1][0], "1/s")}


# --- point_stream ------------------------------------------------------------

FINITE, MASSIVE, INVERSE = 0, 1, 2

# Each block holds four finite solves, one massive solve and one inversion, in
# a seeded order: exactly the 2/3, 1/6, 1/6 mix in every pass.
POINT_BLOCK = (FINITE,) * 4 + (MASSIVE, INVERSE)
POINT_BLOCKS = 1365

# One speed mark of one tick every this many calls: about 2% of a pass.
POINT_TICK_EVERY = 8

# Users log-uniform on [2, 1e12], powers uniform in dB on [-60, 60].  The
# upper decades of K are where the finite solver is known to lose accuracy;
# the range stays this wide so that the defect shows in ok_ratio.
MAX_USERS = 1e12
POWER_DB = (-60.0, 60.0)


def draw_points(seed: int) -> list[tuple[int, float, float]]:
    rng = random.Random(seed)
    pool = []
    block = list(POINT_BLOCK)
    for _ in range(POINT_BLOCKS):
        rng.shuffle(block)
        for kind in block:
            power = db_to_power(rng.uniform(*POWER_DB))
            if kind == FINITE:
                users = round(2 * (MAX_USERS / 2) ** rng.random())
                pool.append((kind, users, power))
            else:
                pool.append((kind, power, 0.0))
    return pool


class PointStream(Workload):
    """Independent single-point solves, one call at a time."""

    name = "point_stream"

    def setup(self) -> None:
        from macgain import solvers

        self.solvers = solvers
        self.errors = (solvers.BracketError, solvers.ConvergenceError, ValueError)
        self.pool = draw_points(self.seed)
        _, users, power = next(p for p in self.pool if p[0] == FINITE)
        solvers.solve_lambda_star(users, power)
        # Per pass: op_figures scaled and as measured.  Summarising each pass
        # keeps the harness's memory flat however long the run is.
        self.passes: list[tuple[Figures, Figures]] = []
        self.p99_s: list[float] = []

    def inputs(self) -> object:
        return self.pool

    def unit(self) -> list:
        s = self.solvers
        solve = (s.solve_lambda_star, s.solve_lambda_massive, s.invert_massive_parametric)
        errors = self.errors
        clock = time.perf_counter
        latencies = array("d")
        outputs = []
        probe = SpeedProbe()
        for i, (kind, a, b) in enumerate(self.pool):
            if i % POINT_TICK_EVERY == 0:
                probe.mark()
            fn = solve[kind]
            t0 = clock()
            try:
                result = fn(a, b) if kind == FINITE else fn(a)
            except errors as exc:
                # Only the name: the traceback would tie this frame, and with
                # it the whole pass's results, into a reference cycle.
                result = type(exc).__name__
            latencies.append(clock() - t0)
            outputs.append(result)
        probe.mark()
        factors = probe.factors()
        scaled = [t * factors[i // POINT_TICK_EVERY] for i, t in enumerate(latencies)]
        self.passes.append((op_figures(scaled), op_figures(latencies)))
        self.p99_s.append(percentile(latencies, 99))
        return [_lambda_of(r) for r in outputs]

    def check(self, outputs: list) -> tuple[int, int]:
        from certify import finite_certified, massive_certified

        failed = 0
        for (kind, a, b), lam in zip(self.pool, outputs):
            if isinstance(lam, str):
                failed += 1
            elif kind == FINITE:
                failed += not finite_certified(a, b, lam)
            else:
                failed += not massive_certified(a, lam)
        return len(outputs), failed

    def controls_pass(self) -> bool:
        from certify import controls_pass

        return controls_pass()

    def op_times(self):
        return unit_medians(self.passes)

    def detail(self):
        return {"point_p99_us": (statistics.median(self.p99_s) * 1e6, "us")}

    def context(self) -> dict:
        return {"passes_timed": len(self.passes), "calls_per_pass": len(self.pool)}


def _lambda_of(result) -> "float | str":
    """A call's lambda, or the name of the exception it raised."""
    if isinstance(result, str):
        return result
    if isinstance(result, tuple):
        return result[1]
    return result.lambda_star


# --- cli_session -------------------------------------------------------------

# Finite solves use the midpoints of three log-uniform strata of [2, 1e12],
# so each cycle holds one small, one mid-range and one very large user count
# whatever the seed; powers are drawn.  The largest sits inside the decades
# where the finite solver loses accuracy.
SESSION_USERS = tuple(round(2 * (MAX_USERS / 2) ** ((i + 0.5) / 3)) for i in range(3))

FIGURE_LABELS = ("K=2", "K=3", "K=10", "K=100", "massive")
FIGURE_USERS = (2.0, 3.0, 10.0, 100.0, math.inf)
SWEEP_POINTS_DEFAULT = 401
SWEEP_POINTS_FINE = 2001

# Speed ticks at the mark before each command, about 1 ms.
COMMAND_TICKS = 120


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    long: bool
    check: Callable[[int, bytes], bool]


def _text_fields(stdout: bytes) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.decode().splitlines())


def check_solve(code: int, stdout: bytes, users: int | None, power: float,
                as_json: bool) -> bool:
    from certify import TEXT_TOL, TOL, finite_certified, massive_certified

    if code != 0:
        return False
    if as_json:
        payload = json.loads(stdout)
        lam, F, tol = payload["lambda"], payload["gain_F"], TOL
    else:
        fields = _text_fields(stdout)
        lam, F, tol = float(fields["lambda_star"]), float(fields["gain_F"]), TEXT_TOL
    if not 1.0 <= F < 2.0:
        return False
    if users is None:
        return massive_certified(power, lam, tol)
    return finite_certified(users, power, lam, tol)


def check_anchor(code: int, stdout: bytes) -> bool:
    """Massive limit at 30 dB: lambda = 9.1193, F = 1.3198."""
    if not check_solve(code, stdout, None, 1000.0, True):
        return False
    payload = json.loads(stdout)
    return (abs(payload["lambda"] - 9.1193) < 5e-5
            and abs(payload["gain_F"] - 1.3198) < 5e-5)


def check_peak(code: int, stdout: bytes, massive: bool) -> bool:
    """Any peak lies inside the default range; the massive one is F* = 1.5373 at 7.29 dB."""
    if code != 0:
        return False
    fields = _text_fields(stdout)
    F, at_db = float(fields["F_star"]), float(fields["pi_star_db"])
    if massive:
        return abs(F - 1.5373) < 5e-5 and abs(at_db - 7.29) < 5e-3
    return 1.0 <= F < 2.0 and -10.0 < at_db < 30.0


def check_figure_svg(code: int, stdout: bytes) -> bool:
    """Parses as SVG with one 401-point polyline and one legend entry per series."""
    if code != 0:
        return False
    try:
        root = ET.fromstring(stdout)
    except ET.ParseError:
        return False
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}polyline")
    labels = {t.text for t in root.findall(f"{ns}text")}
    return (len(lines) == len(FIGURE_LABELS)
            and all(len(pl.get("points", "").split()) == SWEEP_POINTS_DEFAULT
                    for pl in lines)
            and labels.issuperset(FIGURE_LABELS))


def check_figure_csv(code: int, stdout: bytes) -> bool:
    """Power-gain CSV: one block per series, lambda in [1, K] and nondecreasing."""
    if code != 0:
        return False
    lines = stdout.decode().splitlines()
    if lines[0] != "# columns: pi_db,lambda,lambda_db":
        return False
    blocks: list[list[float]] = []
    for line in lines[1:]:
        if line.startswith("# K="):
            blocks.append([])
        else:
            blocks[-1].append(float(line.split(",")[1]))
    return len(blocks) == len(FIGURE_USERS) and all(
        len(lams) == SWEEP_POINTS_FINE
        and all(1.0 <= lam <= users for lam in lams)
        and all(a <= b for a, b in zip(lams, lams[1:]))
        for users, lams in zip(FIGURE_USERS, blocks)
    )


def check_curve_json(code: int, stdout: bytes) -> bool:
    if code != 0:
        return False
    points = json.loads(stdout)["points"]
    return len(points) == SWEEP_POINTS_FINE and all(
        p["K"] == 100 and 1.0 <= p["F"] < 2.0 for p in points
    )


def session_commands(seed: int) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for users in SESSION_USERS:
        for as_json in (False, True):
            db = rng.uniform(*POWER_DB)
            argv = ("solve", "--users", str(users), f"--power-db={db!r}")
            commands.append(Command(
                argv + (("--format", "json") if as_json else ()), False,
                partial(check_solve, users=users, power=db_to_power(db), as_json=as_json)))
    for as_json in (False, True):
        db = rng.uniform(*POWER_DB)
        argv = ("solve", "--massive", f"--total-power-db={db!r}")
        commands.append(Command(
            argv + (("--format", "json") if as_json else ()), False,
            partial(check_solve, users=None, power=db_to_power(db), as_json=as_json)))
    commands += [
        Command(("solve", "--massive", "--total-power-db", "30", "--format", "json"),
                False, check_anchor),
        Command(("peak", "--users", "10"), False, partial(check_peak, massive=False)),
        Command(("peak", "--massive"), False, partial(check_peak, massive=True)),
        Command(("figure", "--which", "cfactor", "--format", "svg"), True,
                check_figure_svg),
        Command(("figure", "--which", "pfactor", "--format", "csv", "--step-db", "0.02"),
                True, check_figure_csv),
        Command(("curve", "--users", "100", "--format", "json", "--step-db", "0.02"),
                True, check_curve_json),
    ]
    return commands


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_child(argv: list[str], env: dict[str, str]) -> tuple[float, int, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def _passes(command: Command, code: int, stdout: bytes) -> bool:
    try:
        return command.check(code, stdout)
    except (ValueError, KeyError, IndexError, TypeError):
        # Output that does not parse fails its check like a wrong value.
        return False


class CliSession(Workload):
    """Sequential ``python -m macgain`` subprocesses in a fixed mix."""

    name = "cli_session"
    rss_of = resource.RUSAGE_CHILDREN

    def setup(self) -> None:
        self.env = _child_env()
        self.commands = session_commands(self.seed)
        self.short_s: list[float] = []
        self.long_s: list[float] = []
        # Per cycle: op_figures scaled and as measured.
        self.cycles: list[tuple[Figures, Figures]] = []
        _run_child(self._argv(self.commands[0]), self.env)

    def _argv(self, command: Command) -> list[str]:
        return [sys.executable, "-m", "macgain", *command.argv]

    def inputs(self) -> object:
        return [c.argv for c in self.commands]

    def unit(self) -> list:
        outputs, times = [], []
        probe = SpeedProbe()
        for command in self.commands:
            probe.mark(COMMAND_TICKS)
            elapsed, code, stdout = _run_child(self._argv(command), self.env)
            (self.long_s if command.long else self.short_s).append(elapsed)
            times.append(elapsed)
            outputs.append((code, stdout))
        probe.mark(COMMAND_TICKS)
        scaled = [t * f for t, f in zip(times, probe.factors())]
        self.cycles.append((op_figures(scaled), op_figures(times)))
        return outputs

    def traced_unit(self) -> list:
        from macgain import cli

        outputs = []
        for command in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(command.argv))
            outputs.append((code, out.getvalue().encode()))
        return outputs

    def check(self, outputs: list) -> tuple[int, int]:
        failed = sum(not _passes(c, code, stdout)
                     for c, (code, stdout) in zip(self.commands, outputs))
        return len(outputs), failed

    def controls_pass(self) -> bool:
        from certify import controls_pass

        return controls_pass()

    def op_times(self):
        return unit_medians(self.cycles)

    def detail(self):
        return {
            "cli_short_p50_ms": (statistics.median(self.short_s) * 1e3, "ms"),
            "cli_short_p90_ms": (percentile(self.short_s, 90) * 1e3, "ms"),
            "cli_long_p50_ms": (statistics.median(self.long_s) * 1e3, "ms"),
        }

    def layer_extras(self, outputs: list) -> dict[str, float]:
        interpreter, imported = [], []
        for _ in range(5):
            interpreter.append(_run_child([sys.executable, "-c", "pass"], self.env)[0])
            imported.append(
                _run_child([sys.executable, "-c", "import macgain.cli"], self.env)[0])
        interpreter_s = statistics.median(interpreter)
        return {
            "cli.interpreter_s": interpreter_s,
            "cli.import_s": statistics.median(imported) - interpreter_s,
            "cli.stdout_bytes": sum(len(stdout) for _, stdout in outputs),
        }

    def context(self) -> dict:
        return {"short_commands_timed": len(self.short_s),
                "long_commands_timed": len(self.long_s)}


WORKLOADS = {w.name: w for w in (VerifyBatch, PointStream, CliSession)}
