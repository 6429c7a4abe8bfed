"""Order statistics shared by the runner, the baseline script and the tests."""
from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, percentile: int):
    """Value at an integer percentile by the nearest-rank rule."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile * n / 100))
    return sorted_values[rank - 1]


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[int, float]:
    """(percentile, value) at the highest integer percentile that still has
    at least ``min_beyond`` samples above its rank.

    When that percentile would not lie above the median (fewer than
    2 * min_beyond samples), no tail percentile is supported by the data and
    the maximum is reported as percentile 100.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in range(100, 0, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            best = p
            break
    if best is None or best <= 50:
        return 100, ordered[-1]
    return best, nearest_rank(ordered, best)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
