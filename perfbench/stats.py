"""Order statistics shared by the reports and the comparison command."""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float], want: int = 90,
                    beyond: int = 10) -> tuple[int, float] | None:
    """The highest integer percentile p <= ``want`` with ``beyond`` samples above it.

    The percentile value is the nearest-rank order statistic, so "samples
    above it" counts the ranks after it. Below the median a tail figure says
    nothing, so when even p50 lacks ``beyond`` samples the result is None.
    """
    n = len(values)
    ordered = sorted(values)
    for p in range(want, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None
