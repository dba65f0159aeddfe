"""Reference-adjusted time.

The host's speed drifts by tens of percent within seconds (other tenants on
shared cores), so a raw timing does not repeat.  After every timed interval
the benchmark runs a fixed pure-Python reference kernel for about a quarter
of the interval's own time; the interval is divided by the kernel's mean
slice time and multiplied by NOMINAL_SLICE_S.  The result reads as seconds on
this host at the speed where one slice takes NOMINAL_SLICE_S.

The kernel mixes what qpr spends its time on: float math calls, tuple and
list building, a sort, and big-integer square roots.  It must never change:
every figure the benchmark reports is in its units.
"""

from __future__ import annotations

import math
import time

# one slice at nominal speed (measured on the reference host, see README)
NOMINAL_SLICE_S = 150e-6
# reference time run after each interval, as a share of the interval
SHARE = 0.25


def reference_slice() -> float:
    acc = 0.0
    x = 0.3
    items = []
    for k in range(1, 120):
        x = math.exp(-x * 0.5) + math.log1p(k * 1e-3)
        t = (x, k, math.cos(x))
        items.append(t)
        acc += t[0] * t[2]
        acc += math.isqrt((k * 1234567891) ** 3) & 7
    items.sort()
    return acc


def slice_time(count: int) -> float:
    """Mean seconds per reference slice over count slices, run now."""
    clock = time.perf_counter
    t0 = clock()
    for _ in range(count):
        reference_slice()
    return (clock() - t0) / count


def adjust(raw: float) -> float:
    """raw seconds of an interval that just ended, in nominal seconds."""
    count = max(4, round(SHARE * raw / NOMINAL_SLICE_S))
    return raw * NOMINAL_SLICE_S / slice_time(count)
