"""Order statistics used by every report the benchmark prints."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is only reported with at least this many samples
#: strictly above it, so one outlier cannot move it by itself.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100).

    The smallest sample with at least ``q`` percent of all samples at or
    below it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th
    percentile's rank."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(q / 100.0 * count))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """The quartile distance as a share of the median (0 when it is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
