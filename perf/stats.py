"""Small statistics helpers: the percentile rule and the spread of ten runs."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

#: Percentiles the tail rule chooses from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ≥ p % at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the p-th percentile."""
    return n - _rank(n, p)


def supported_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with ≥ 10 samples beyond it."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(percentile, value, samples beyond)`` by the rule above."""
    p = supported_tail(len(values))
    if p is None:
        return None, None, 0
    return p, percentile(values, p), samples_beyond(len(values), p)


def iqr_share(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness figure over ten runs)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
