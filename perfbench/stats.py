"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import math

TAIL_BEYOND = 10
PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.9)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, sample count) at the highest percentile of
    PERCENTILES that still has at least TAIL_BEYOND samples beyond it.

    The value at percentile p is the nearest-rank sample, rank ceil(p*N/100)
    of N sorted samples, so N - rank samples lie beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in reversed(PERCENTILES):
        rank = math.ceil(p * n / 100.0)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n
    raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond the median")
