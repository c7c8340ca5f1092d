"""Host-speed calibration: fixed work that never changes between commits.

On a shared host the CPU runs the same code at very different speeds
from one minute to the next: the same ``storage-pressure`` body took
7.5 s in one stretch and 14 s a few minutes later, and set-up time moved
with it (1.3 s against 2.3 s).  No run length averages out swings that
last minutes.  The benchmark therefore times this fixed work right before
and right after every measurement and expresses the measurement at the
reference host speed: ``seconds * REFERENCE_S / calibration seconds``.

The work imitates the workloads' mix — heap and dictionary traffic in
pure Python plus small NumPy searches and reductions — and uses nothing
from the library, so a change to the library can never move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Seconds one calibration takes at the reference host speed (the median
#: measured on the two-core benchmark host in its faster state).
REFERENCE_S = 0.25


def _fixed_work() -> float:
    started = time.perf_counter()
    heap = []
    table = {}
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 10_007, i))
        table[i % 5003] = table.get(i % 5003, 0) + i
    while heap:
        heapq.heappop(heap)
    keys = np.arange(20_000, dtype=np.int64)
    probes = (keys * 3) % 20_000
    for _ in range(200):
        np.searchsorted(keys, probes)
        keys.sum()
    return time.perf_counter() - started


def calibrate(samples: int = 3) -> float:
    """Median seconds of *samples* runs of the fixed work."""
    return statistics.median(_fixed_work() for _ in range(samples))


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between calibrations *before* and *after*,
    expressed at the reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
