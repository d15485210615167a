"""Spans and counts recorded from outside the package, for the traced run only.

The tracer replaces a public function at every module attribute of the
package that holds it (``macgain.solvers.eval_point`` and the
``macgain.cli.eval_point`` that the CLI calls through are the same object),
so calls between modules are seen without touching ``src/``.  Calls inside
one module through a private helper stay invisible; splitting those needs
spans inside the program.

Spans live in memory as ``[name, start, end, parent, raised]`` lists.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

# Leaf kernels are only counted: they are called tens of times per solve, and
# a span each would dominate what the trace measures.
COUNTED = ("core.f_of", "core.massive_parametric", "core.db_residual")

SOLVES = (
    "solvers.solve_lambda_star",
    "solvers.solve_lambda_massive",
    "solvers.invert_massive_parametric",
    "solvers.eval_point",
)

SPANNED = SOLVES + (
    "solvers.sweep_curve",
    "solvers.find_peak",
    "verify.draw_samples",
    "verify.run_suite",
    "verify.point_bound_slacks",
    "verify.check_tail_bounds",
    "verify.check_derivative",
    "verify.check_monotone_unimodal",
    "svgplot.line_chart",
    "cli.main",
)

# Per-layer metrics in report order, with units.  "calls" and "self_s" come
# from spans, "s" is inclusive span time; the rest are read off results.
LAYER_METRICS = (
    ("core.f_of.calls", "count"),
    ("core.massive_parametric.calls", "count"),
    ("core.db_residual.calls", "count"),
    ("solvers.solve_lambda_star.calls", "count"),
    ("solvers.solve_lambda_star.self_s", "s"),
    ("solvers.solve_lambda_massive.calls", "count"),
    ("solvers.solve_lambda_massive.self_s", "s"),
    ("solvers.invert_massive_parametric.calls", "count"),
    ("solvers.invert_massive_parametric.self_s", "s"),
    ("solvers.eval_point.calls", "count"),
    ("solvers.eval_point.self_s", "s"),
    ("solvers.finite_iterations.mean", "count"),
    ("solvers.finite_iterations.max", "count"),
    ("solvers.massive_iterations.mean", "count"),
    ("solvers.massive_iterations.max", "count"),
    ("solvers.sweep_curve.calls", "count"),
    ("solvers.sweep_curve.points", "count"),
    ("solvers.sweep_curve.self_s", "s"),
    ("solvers.find_peak.calls", "count"),
    ("solvers.find_peak.self_s", "s"),
    ("solvers.errors", "count"),
    ("solvers.degenerate", "count"),
    ("verify.draw_samples.s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("verify.point_bound_slacks.calls", "count"),
    ("verify.point_bound_slacks.s", "s"),
    ("verify.check_tail_bounds.s", "s"),
    ("verify.check_derivative.s", "s"),
    ("verify.check_monotone_unimodal.s", "s"),
    ("svgplot.line_chart.calls", "count"),
    ("svgplot.line_chart.s", "s"),
    ("svgplot.line_chart.bytes", "B"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
)

# Metrics that must repeat exactly between traced runs with one seed: they
# count work, so they depend on the inputs and the code but not the machine.
EXACT_SUFFIXES = (".calls", ".points", "_iterations.mean", "_iterations.max",
                  ".errors", ".degenerate", ".bytes")


class Tracer:
    """In-memory spans around wrapped calls, plus observations of results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self.finite_iterations: list[int] = []
        self.massive_iterations: list[int] = []
        self.points = 0
        self.svg_bytes = 0
        self.degenerate = 0

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self._observe(name, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, result) -> None:
        if name in ("solvers.solve_lambda_star", "solvers.solve_lambda_massive",
                    "solvers.eval_point"):
            if result.config.is_massive:
                self.massive_iterations.append(result.iterations)
            else:
                self.finite_iterations.append(result.iterations)
            self.degenerate += result.degenerate
        elif name == "solvers.sweep_curve":
            self.points += len(result)
        elif name == "svgplot.line_chart":
            self.svg_bytes += len(result.encode("utf-8"))

    def metrics(self) -> dict[str, float]:
        """Every entry of LAYER_METRICS, from what this tracer saw."""
        calls: Counter[str] = Counter(self.counts)
        inclusive: Counter[str] = Counter()
        child_time: Counter[int] = Counter()
        errors = 0
        for name, start, end, parent, raised in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
            errors += raised and name in SOLVES
        own: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child_time[i]

        def stats(values: list[int]) -> tuple[float, float]:
            return (statistics.fmean(values), max(values)) if values else (0.0, 0.0)

        finite_mean, finite_max = stats(self.finite_iterations)
        massive_mean, massive_max = stats(self.massive_iterations)
        derived = {
            "solvers.finite_iterations.mean": finite_mean,
            "solvers.finite_iterations.max": finite_max,
            "solvers.massive_iterations.mean": massive_mean,
            "solvers.massive_iterations.max": massive_max,
            "solvers.sweep_curve.points": self.points,
            "solvers.errors": errors,
            "solvers.degenerate": self.degenerate,
            "svgplot.line_chart.bytes": self.svg_bytes,
        }
        out = {}
        for metric, _ in LAYER_METRICS:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            function, _, kind = metric.rpartition(".")
            table = {"calls": calls, "s": inclusive, "self_s": own}[kind]
            out[metric] = table[function]
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every package attribute holding a traced function through tracer."""
    wrappers = {}
    for names, wrap in ((COUNTED, tracer.counted), (SPANNED, tracer.spanned)):
        for name in names:
            module_name, _, attr = name.partition(".")
            original = getattr(import_module(f"macgain.{module_name}"), attr)
            wrappers[id(original)] = (original, wrap(name, original))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "macgain" and not module_name.startswith("macgain."):
            continue
        for key, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, key, entry[1])
                patched.append((module, key, value))
    try:
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def exact_part(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
