"""Summary statistics for the benchmark.

Everything here is plain Python on lists of floats so it can be tested
without the program under measurement.  Failed or refused operations are
represented by ``math.inf`` samples: they count against every latency
percentile instead of being dropped.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Sequence

# Candidate percentiles for the reported tail, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
# A tail percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100).

    ``inf`` samples sort last; a percentile whose interpolation touches
    an ``inf`` sample is ``inf``.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    if lo == hi or frac == 0.0:
        return ordered[lo]
    low, high = ordered[lo], ordered[hi]
    if math.isinf(high) or math.isinf(low):
        return math.inf
    return low + (high - low) * frac


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it, as ``(q, value)``; None when even the median has
    too few samples beyond it."""
    n = len(samples)
    for q in TAIL_CANDIDATES:
        if n * (1 - Fraction(str(q)) / 100) >= MIN_BEYOND:  # exact: 99.9% of 10000 leaves 10
            return q, percentile(samples, q)
    return None


def with_failures(successes: Sequence[float], failures: int) -> list[float]:
    """Sample list in which each failed operation is an ``inf`` latency."""
    if failures < 0:
        raise ValueError("failure count must be nonnegative")
    return list(successes) + [math.inf] * failures


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of
    ``statistics.quantiles(values, n=4)`` (exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf

