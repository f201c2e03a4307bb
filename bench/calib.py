"""Timing at a fixed reference speed.

On a shared machine the CPU speed available to one process swings: on the
2-core machine this benchmark was written on, a fixed pure-Python loop ran
up to 1.8 times slower for minutes at a time, and CPU time swung exactly
like wall time, so neither longer runs nor medians made timings repeat.
Every timed interval is therefore reported rescaled to a reference speed:
a fixed unit of pure-Python float work is timed right before and right
after the interval, and the interval is multiplied by

    REFERENCE_S / (mean of those two reference times),

which cancels the swings that slow the reference and the library alike.
The raw medians are kept in each run's record.
"""

from __future__ import annotations

import math
import time

#: Nominal time of one reference unit; sets the scale of every reported time.
REFERENCE_S = 0.005


def reference_unit() -> float:
    """Fixed pure-Python float work, about REFERENCE_S long."""
    total = 0.0
    for i in range(1, 20001):
        x = math.log1p(i * 1e-4)
        total += math.expm1(x) / (1.0 + x)
    return total


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


class Calibration:
    """Running calibration: each call of :meth:`scale` measures the
    reference once and returns the factor for the interval since the
    previous measurement."""

    def __init__(self) -> None:
        self.last = reference_time()

    def scale(self) -> float:
        now = reference_time()
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor
