"""Host-speed probe: rescales measured times to one reference host speed.

The benchmark host is a shared 2-vCPU virtual machine whose speed drifts
in phases that last from under a second to several minutes: the same
fixed work takes 1.0x to about 1.9x its fastest time. Over ten runs of
36 s that drift, not lcseg, set the spread of raw wall times: the
interquartile range of latency_p50_s was 23% of its median on
mesh256_noisy and 29% on tiles128_stack. So the benchmark runs a fixed
probe between images and rescales each image's wall time by how slow
the probe ran around it; over ten runs of 30 s the same spreads were
then 4.2% and 3.2%.

The probe does the kind of work that dominates lcseg's time: numpy
scalar indexing and ``np.clip`` on scalars feeding a ``heapq`` priority
queue, as in the watershed flood and the bat's fitness calls.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

# The probe's time on the tuning host when it ran fastest (5th percentile
# of 600 probes).  Rescaled times read as seconds at that speed.
REFERENCE_S = 0.0038

_TABLE = np.arange(4096, dtype=np.float64).reshape(64, 64) / 16.0


def _kernel() -> float:
    start = time.perf_counter()
    heap: list[tuple[float, int]] = []
    for i in range(600):
        value = float(np.clip(math.floor(_TABLE[i & 63, (i * 7) & 63]), 0, 255))
        heapq.heappush(heap, (value, i))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe takes now: the median of three kernel runs."""
    return statistics.median(_kernel() for _ in range(3))


def factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two probes to reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
