"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark host shares its cores with other tenants, and the speed at
which it executes the same instructions drifts by ±25 % over minutes. CPU
time drifts with wall time, so the change is in execution speed, not in
scheduling. The reference kernel mixes the kinds of work ``catens`` does: a
broadcast compare of integer codes, like the mismatch kernel; full scans of
an n×n float matrix, like agglomeration; and a dict-heavy Python loop, like
encoding. It uses only numpy and Python, never ``catens``, so a change to
the program cannot move it. The worker times it between passes and scales
each timing by :func:`speed` of the reference times next to it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# usual time of one kernel() call on the 2-vCPU Xeon the bounds were set on;
# it fixes the scale of the reported seconds
REFERENCE_S = 0.055

# Regression slope of log(pass time) on log(reference time), measured on that
# host: 0.49-0.61 across the kinds of work the workloads do. A second or so of
# reference samples carries noise of its own, so correcting by the full ratio
# (slope 1) over-corrects; over ten seeds it widened the spread of large-n
# wall time from 8.5 % to 27 %, where the square root kept every workload
# under 10 %.
ELASTICITY = 0.5


def speed(times: list[float]) -> float:
    """Factor that brings a timing taken next to ``times`` to the usual
    speed of the machine."""
    return (REFERENCE_S / statistics.median(times)) ** ELASTICITY


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20150625)
        self.codes = rng.integers(0, 4, size=(32, 36_000), dtype=np.int32)
        self.matrix = rng.random((600, 600))

    def kernel(self) -> int:
        total = 0
        for s in range(0, 32, 4):
            total += int((self.codes[s:s + 4, None, :] != self.codes[None, :, :]).sum())
        for _ in range(24):
            total += int((self.matrix == self.matrix.min()).sum())
        counts: dict[int, int] = {}
        for i in range(120_000):
            key = i % 977
            counts[key] = counts.get(key, 0) + 1
        return total + len(counts)

    def sample(self, seconds: float) -> list[float]:
        """Wall times of back-to-back kernel calls over about ``seconds``;
        at least three calls."""
        times: list[float] = []
        while len(times) < 3 or sum(times) < seconds:
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return times
