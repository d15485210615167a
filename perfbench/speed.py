"""Wall times scaled to one reference CPU speed.

On a shared virtual machine the same Python code runs up to about 1.8x
faster or slower from one minute to the next, as other tenants load the
cores it shares.  A median over one run cannot remove that, because whole
runs land in a fast or a slow period.  The benchmark therefore times a fixed
pure-Python kernel at marks interleaved with the measured work, and
multiplies each time measured between two marks by the reference kernel
time over the kernel time at those marks.  The product is the time the work
would have taken at the reference speed.  A change to the program still
moves it in full, since the kernel is harness code.

The raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

# The kernel's time at the reference speed.  On the two-vCPU Xeon virtual
# machine that defined the benchmark it took 6 to 10 us, so scaled times
# there read close to wall times.
REFERENCE_KERNEL_S = 8e-6

# Ticks slower than this multiple of their median were interrupted (the
# process was descheduled), which says nothing about CPU speed.
_INTERRUPTED = 4.0


def _kernel() -> float:
    # Float arithmetic and libm calls in a Python loop: the instruction mix
    # of a bisection step.
    x, acc = 0.5, 0.0
    for _ in range(40):
        x = x * 1.0000001 + 1e-9
        acc += math.log1p(x) / (1.0 + x)
    return acc


class SpeedProbe:
    """Kernel timings at marks placed between stretches of measured work."""

    def __init__(self) -> None:
        self.marks: list[float] = []

    def mark(self, ticks: int = 1) -> None:
        """Time the kernel `ticks` times and record its mean time here."""
        clock = time.perf_counter
        times = []
        for _ in range(ticks):
            t0 = clock()
            _kernel()
            times.append(clock() - t0)
        cut = _INTERRUPTED * statistics.median(times)
        kept = [t for t in times if t <= cut]
        self.marks.append(math.fsum(kept) / len(kept))

    def factors(self) -> list[float]:
        """One factor per stretch between consecutive marks: multiply a wall
        time measured in that stretch by it to get the reference-speed time."""
        usual = statistics.median(self.marks)
        marks = [m if m <= _INTERRUPTED * usual else usual for m in self.marks]
        return [2.0 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(marks, marks[1:])]
