"""Machine-speed gauge: report times at a reference speed.

The box this benchmark runs on is a shared virtual machine whose
effective CPU speed drifts by tens of percent over seconds to minutes
(measured: forty passes over the same 100 queries spread 41 % raw).
CPU time does not help — the process is running, only slower.  What
does help is a yardstick: a fixed piece of pure-Python work run next to
every timed operation.  The engine is interpreter-bound like the
yardstick, so both slow down together, and

    reported time = raw time × REFERENCE_KERNEL_SECONDS ÷ local kernel time

is what the operation costs on this box at its quiet speed (the same
forty passes spread 14 %, a third).  Raw times stay in the report.
The kernel and the reference are part of the benchmark: a change that
claims a gain may not touch them.
"""

from __future__ import annotations

import statistics
import time
from typing import List

__all__ = ["REFERENCE_KERNEL_SECONDS", "kernel", "SpeedGauge"]

KERNEL_STEPS = 10_000

#: What :func:`kernel` takes on the baseline box when nothing disturbs it
#: (the median of its quiet passes; it reads 0.87–0.92 ms there).
REFERENCE_KERNEL_SECONDS = 0.9e-3

#: Samples on each side that vote on the local speed of one operation.
WINDOW = 8


def kernel() -> int:
    """About a millisecond of interpreter work: arithmetic and dict traffic."""
    total = 0
    table = {}
    for i in range(KERNEL_STEPS):
        total += i * i
        table[i & 255] = total
    return total


class SpeedGauge:
    """Kernel timings taken in step with the timed operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def burst(self, count: int = 25) -> float:
        """Slowdown right now: median of ``count`` fresh samples ÷ reference."""
        fresh = [self.sample() for _ in range(count)]
        return statistics.median(fresh) / REFERENCE_KERNEL_SECONDS

    def slowdowns(self) -> List[float]:
        """Per sample, how much slower than the reference the box ran
        around it: the median of the neighbouring samples ÷ reference."""
        s = self.samples
        return [
            statistics.median(s[max(0, i - WINDOW): i + WINDOW + 1])
            / REFERENCE_KERNEL_SECONDS
            for i in range(len(s))
        ]
