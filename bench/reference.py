"""A fixed reference loop that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.8x over seconds to minutes, more than a regression bound allows between
runs.  Every timing the benchmark reports is therefore divided by the time
of ``reference_loop`` measured on the same core around it, and multiplied by
``NOMINAL_S``: it reads as the time on a host where the loop takes exactly
``NOMINAL_S``.  The loop does not touch morsegrass, so a change to the
package moves the scaled times as it moves wall times.

The benchmark pins itself, and so every process it starts, to one core
(``pin_one_core``): the two cores of a small virtual machine run at
different speeds at the same moment, and a loop timed on one core does not
follow work done on the other.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time

# The loop's median time on the machine the first baseline was taken on
# (Intel Xeon, 2 cores, Python 3.11).
NOMINAL_S = 2.0e-3


def pin_one_core() -> int:
    """Restrict this process and its future children to its first allowed core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def reference_loop() -> float:
    """Small QR and SVD calls: mostly interpreter and call overhead.

    Of the loops tried (integer arithmetic, tuple and dict combinatorics,
    Fraction elimination, these numpy calls), this one's speed followed the
    workloads' best through the host's drift.
    """
    import numpy as np

    x = np.arange(30.0).reshape(6, 5) / 10 + 1
    d = np.diag(np.arange(1.0, 6.0))
    for _ in range(40):
        q, _ = np.linalg.qr(x)
        x = q @ d + 0.1
        s = np.linalg.svd(x, compute_uv=False)
    return float(s[0])


def time_loops(reps: int) -> list[float]:
    """Wall times of ``reps`` reference loops, garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Reference timings taken between the queries of a run.

    ``tick`` is called before each query.  At most every PERIOD_S it times
    the loop, once per PERIOD_S elapsed since the last tick (at most
    MAX_REPS), so the loop takes a few percent of the run whether queries
    are short or, as in cli_cold, a second long.  ``scale`` converts a
    query's wall time into nominal seconds with the median of the ticks
    within WINDOW_S of the query.
    """

    PERIOD_S = 0.1
    MAX_REPS = 9
    WINDOW_S = 0.5

    def __init__(self):
        self.starts: list[float] = []
        self.values: list[float] = []
        self.loops: list[float] = []

    def tick(self, force: bool = False):
        now = time.perf_counter()
        gap = now - self.starts[-1] if self.starts else self.PERIOD_S
        if gap < self.PERIOD_S and not force:
            return
        times = time_loops(max(1, min(self.MAX_REPS, round(gap / self.PERIOD_S))))
        self.starts.append(now)
        self.values.append(statistics.median(times))
        self.loops.extend(times)

    def unit(self, t0: float, t1: float) -> float:
        """The loop's time around the interval [t0, t1], in seconds."""
        lo = bisect.bisect_left(self.starts, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + self.WINDOW_S)
        if lo == hi:  # no tick near the interval: the ticks either side of it
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.median(self.values[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """The wall time t1 - t0 in nominal seconds."""
        return (t1 - t0) * NOMINAL_S / self.unit(t0, t1)
