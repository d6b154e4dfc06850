"""Small, dependency-free statistics helpers.

Implemented by hand (rather than pulling in numpy for two functions) so
that the library's runtime dependencies stay empty; numpy remains a
dev/benchmark convenience only.
"""

from __future__ import annotations

import math
import typing


def mean(values: typing.Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: typing.Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method.  Returns 0.0 for an
    empty sequence.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    fraction = rank - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def describe(values: typing.Sequence[float]) -> dict[str, float]:
    """count/mean/p50/p95/p99/min/max summary of a latency sample."""
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "min": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": mean(ordered),
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "min": ordered[0],
        "max": ordered[-1],
    }
