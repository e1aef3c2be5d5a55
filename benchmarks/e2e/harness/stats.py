"""Percentiles and run-to-run spread, as the benchmark reports them."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

__all__ = [
    "CANDIDATE_PERCENTILES",
    "MIN_SAMPLES_BEYOND",
    "percentile",
    "top_percentile",
    "summarize",
    "quartiles",
    "spread",
]

#: Percentiles a timing may be reported at, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a percentile.
MIN_SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending sequence (linear
    interpolation between the two closest ranks)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def top_percentile(count: int) -> Optional[float]:
    """Highest candidate percentile with ``MIN_SAMPLES_BEYOND`` samples
    beyond it, or ``None`` when even the median has too few."""
    best = None
    for q in CANDIDATE_PERCENTILES:
        # round(): 10000 * (100 - 99.9) / 100 is 9.999999999999432.
        if round(count * (100.0 - q) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def summarize(samples: Sequence[float]) -> dict:
    """Sample count, the supported candidate percentiles, and which one
    is the highest this sample supports.

    Unsupported percentiles are reported as ``None`` rather than as a
    number that one outlier decides.
    """
    ordered = sorted(samples)
    top = top_percentile(len(ordered))
    summary: dict = {"count": len(ordered), "top": top}
    for q in CANDIDATE_PERCENTILES:
        key = f"p{q:g}"
        supported = top is not None and q <= top
        summary[key] = percentile(ordered, q) if supported else None
    return summary


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as the driver takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        raise ValueError("spread of a metric whose median is 0")
    return (q3 - q1) / abs(median)
