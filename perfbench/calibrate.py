"""Machine-speed calibration of the benchmark's time metrics.

The machines the benchmark runs on change speed in phases that last from
seconds to many minutes, most likely because other tenants share their
cores and caches. A fixed slice of work that uses no blockselect code is
therefore timed between operations: pure-Python arithmetic, numpy calls on
small arrays, a small dense ``eigh`` and a memory stream, the kinds of work
the workloads spend their time in. Each time metric is scaled by ``REFERENCE_SLICE_S``
over the median slice time, so it reads as seconds on a machine where one
slice takes ``REFERENCE_SLICE_S``. A change to blockselect does not change
the slice, so it moves a scaled time by the same share as the wall time.

This module imports numpy, so the entry script pins the BLAS thread counts
before importing it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median slice time on the machine the nominal operation times were taken on
REFERENCE_SLICE_S = 0.040


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((600, 3))
        self._w = rng.standard_normal((3, 3))
        a = rng.standard_normal((60, 60))
        self._sym = a + a.T
        self._stream = rng.standard_normal(2_000_000)
        # written in place: allocating it would time the allocator's state,
        # which the workload's own large arrays leave behind
        self._out = np.empty_like(self._stream)
        self.slices: list[float] = []
        # seconds spent in slices, and where the last group of them starts
        self.spent_s = 0.0
        self._group: int | None = None

    def _slice(self) -> None:
        s = 0
        for j in range(100_000):
            s += j * j
        for _ in range(400):
            y = self._x @ self._w
            np.linalg.norm(y, axis=1)
            np.argmin(y, axis=1)
        for _ in range(10):
            np.linalg.eigh(self._sym)
        for _ in range(4):
            self._stream.sum()
            np.multiply(self._stream, 2.0, out=self._out)

    def run(self, n: int) -> None:
        """Time a group of ``n`` slices."""
        self._group = len(self.slices)
        t0 = time.perf_counter()
        for _ in range(n):
            t = time.perf_counter()
            self._slice()
            self.slices.append(time.perf_counter() - t)
        self.spent_s += time.perf_counter() - t0

    def between(self, n: int, fn, *args):
        """Call ``fn(*args)`` between the last group of slices and a new
        group of ``n``; return its result and the scale for times measured
        during the call."""
        if self._group is None:
            self.run(n)
        start = self._group
        result = fn(*args)
        self.run(n)
        return result, self.factor(start)

    def factor(self, start: int = 0) -> float:
        """Scale for wall times measured while ``slices[start:]`` ran."""
        return REFERENCE_SLICE_S / statistics.median(self.slices[start:])
