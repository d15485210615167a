"""macgain benchmark: one workload per process, one JSON result per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced units and prints the per-layer
metrics plus ``trace_overhead_ratio``.  The last line of standard output is
the result; the line before it records the seed, a digest of the generated
inputs and a machine stamp.  See perfbench/README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import LAYER_METRICS, Tracer, exact_part, installed
from workloads import WORKLOADS, rss_mb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fresh processes that each time set-up; setup_s is their median.
SETUP_PROBES = 5

# Speed ticks at the marks on each side of a timed set-up, about 2 ms each.
SETUP_TICKS = 250

# Per-layer metrics measured outside the tracer, with units.
LAYER_EXTRA_UNITS = {"cli.interpreter_s": "s", "cli.import_s": "s",
                     "cli.stdout_bytes": "B"}


class Units:
    """Outputs of repeated units: the first unit's, kept to check, and whether
    every later unit reproduced them.  Later outputs are dropped at once so the
    harness's memory does not grow with the run."""

    def __init__(self) -> None:
        self.first = None
        self.count = 0
        self.identical = True

    def add(self, outputs: list) -> None:
        if self.count == 0:
            self.first = outputs
        elif outputs != self.first:
            self.identical = False
        self.count += 1

    def tally(self, workload) -> tuple[int, int]:
        """(operations, failed operations) of one unit, the first.

        Later units repeat the same inputs and must reproduce its outputs, so
        each distinct operation counts once.  The counts then depend on the
        seed alone, not on how many units the machine fitted into the run.
        """
        return workload.check(self.first)


def repeat_units(seconds: float, unit, units: Units) -> None:
    """Run whole units back to back for about `seconds`; at least one.

    A unit starts only if one more unit as long as the last still fits.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs = unit()
        t1 = time.perf_counter()
        units.add(outputs)
        if t1 - start + (t1 - t0) > seconds:
            return


def timed_setup(workload) -> tuple[float, float]:
    """Set-up time scaled to the reference speed, and as measured."""
    probe = SpeedProbe()
    probe.mark(SETUP_TICKS)
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    probe.mark(SETUP_TICKS)
    return elapsed * probe.factors()[0], elapsed


def setup_probe_s(workload_name: str, seed: int) -> tuple[float, float]:
    """timed_setup in a fresh process, so that the import is timed too."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_untraced(workload, seconds: float) -> tuple[dict, int, int, bool, dict]:
    setup = [setup_probe_s(workload.name, workload.seed) for _ in range(SETUP_PROBES)]
    workload.setup()
    gc.collect()
    units = Units()
    repeat_units(seconds, workload.unit, units)
    rss = rss_mb(workload.rss_of)
    controls = workload.controls_pass()
    attempted, failed = units.tally(workload)
    (rate, p50, p90), (raw_rate, raw_p50, raw_p90) = workload.op_times()
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "wall_setup_s": (statistics.median(r for _, r in setup), "s"),
        "wall_ops_per_s": (raw_rate, "1/s"),
        "wall_op_p50_ms": (raw_p50 * 1e3, "ms"),
        "wall_op_p90_ms": (raw_p90 * 1e3, "ms"),
        **workload.detail(),
    }
    context = {"units": units.count, "detail": as_json(detail)}
    return metrics, attempted, failed, controls and units.identical, context


def run_traced(workload, seconds: float) -> tuple[dict, int, int, bool, dict]:
    workload.setup()
    plain, traced, layers, units = [], [], [], Units()
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        units.add(workload.traced_unit())
        t1 = time.perf_counter()
        tracer = Tracer()
        with installed(tracer):
            outputs = workload.traced_unit()
        t2 = time.perf_counter()
        units.add(outputs)
        plain.append(t1 - t0)
        traced.append(t2 - t1)
        layers.append(tracer.metrics())
        if len(layers) >= 2 and t2 - start + (t2 - t0) > seconds:
            break
    counts = [exact_part(m) for m in layers]
    if any(c != counts[0] for c in counts[1:]):
        diff = {k: [c[k] for c in counts] for k in counts[0]
                if any(c[k] != counts[0][k] for c in counts)}
        raise SystemExit(f"perfbench: traced counts differ between units: {diff}")
    controls = workload.controls_pass()
    attempted, failed = units.tally(workload)
    metrics = {name: (statistics.median(m[name] for m in layers), unit)
               for name, unit in LAYER_METRICS}
    extras = workload.layer_extras(units.first)
    for name, unit in LAYER_EXTRA_UNITS.items():
        metrics[name] = (extras.get(name, 0), unit)
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    context = {"units": units.count, "traced_units": len(traced)}
    return metrics, attempted, failed, controls and units.identical, context


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    speed marks and the measured work see the same core's load."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine_stamp() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_to": sorted(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "macgain" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'macgain'}; run from the "
              "root of a macgain checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(*timed_setup(workload))
        return 0

    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, correct, context = run(workload, args.seconds)
    digest = hashlib.sha256(repr(workload.inputs()).encode()).hexdigest()
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest, "machine": machine_stamp(),
        **context, **workload.context()}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
