"""Order statistics for timing samples.

A median is always reported. A higher percentile is reported only
when at least :data:`MIN_BEYOND` samples lie strictly beyond it, so a
``p90`` never stands for one or two slow outliers.
"""

import math
import statistics

MIN_BEYOND = 10


def median(samples):
    return statistics.median(samples)


def percentile(samples, fraction):
    """Nearest-rank percentile, or ``None`` when fewer than MIN_BEYOND samples exceed it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    ordered = sorted(samples)
    if not ordered:
        return None
    value = ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
    beyond = sum(1 for sample in ordered if sample > value)
    return value if beyond >= MIN_BEYOND else None


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
