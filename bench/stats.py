"""Order statistics used by the report."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With J sorted samples that is the (J - TAIL_BEYOND)-th smallest, which
    has exactly TAIL_BEYOND samples above it, at percentile
    100 * (J - TAIL_BEYOND) / J.  With TAIL_BEYOND or fewer samples no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    if not samples:
        raise ValueError("no samples")
    j = len(samples)
    ordered = sorted(samples)
    if j <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[j - TAIL_BEYOND - 1], 100.0 * (j - TAIL_BEYOND) / j


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
