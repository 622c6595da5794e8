"""Machine-speed calibration for the end-to-end time metrics.

The benchmark runs on a shared VM whose speed drifts by ±10–15% over tens of
seconds (see NOTES.md).  A fixed kernel that does not call giplab is timed
between ops, at most every EVERY_S.  Each op latency is then multiplied by
REFERENCE_S / (kernel time interpolated to the op's midpoint), so the
metrics read as "at the reference machine speed".  The kernel mixes
a bytecode loop with small numpy and LAPACK calls, the two kinds of work
that dominate giplab's ops; it tracked op time better than a kernel that
adds a large fancy-index gather.  The raw wall-clock figures
are reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel seconds at the speed the metrics are scaled to: its median on the
# machine that defined the benchmark
REFERENCE_S = 0.010
EVERY_S = 0.5      # calibrate between ops at least this often


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a8 = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        self.b8 = rng.standard_normal(8)
        self.mat = rng.standard_normal((8, 400))
        self.y8 = rng.standard_normal(8)
        self.times: list[float] = []     # perf_counter at each kernel's midpoint
        self.samples: list[float] = []   # kernel seconds
        self.kernel()  # first calls initialise LAPACK and the allocator

    def kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for j in range(120000):
            total += j
        for _ in range(120):
            np.linalg.solve(self.a8, self.b8)
            d = self.mat.T @ self.y8
            np.flatnonzero(d > 0.1)
            np.abs(d).max()
        return time.perf_counter() - t0

    def tick(self, force: bool = False) -> None:
        """Time the kernel if EVERY_S has passed since the last sample."""
        if force or not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            t0 = time.perf_counter()
            self.samples.append(self.kernel())
            self.times.append(t0 + self.samples[-1] / 2.0)

    def scale(self) -> float:
        """Factor taking this process's times to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale_at(self, t: float) -> float:
        """Factor for an op whose midpoint is at perf_counter time t: the
        kernel time is interpolated between the samples around t."""
        return REFERENCE_S / float(np.interp(t, self.times, self.samples))
