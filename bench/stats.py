"""Order statistics shared by ``run.py`` and ``compare.py``.

Everything is reported the way the choosing-metrics guide asks: a median,
the quartiles around it, the sample count, and for latency pools the
highest percentile that still has ten samples beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a latency pool may report, lowest first.
_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``
    gives them — the rule the driver applies to ten runs; one sample is
    its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least ``pct``
    percent of the pool at or below it)."""
    ordered = sorted(values)
    # round() first: 2000 * 99.9 / 100 is 1998.0000000000002 in floats.
    rank = max(1, math.ceil(round(len(ordered) * pct / 100.0, 9)))
    return ordered[rank - 1]


def highest_percentile(n_samples: int) -> Optional[float]:
    """The highest reportable percentile: at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for pct in _PERCENTILES:
        # round(): 100 - 99.9 is 0.0999...94 in floats.
        if round(n_samples * (100.0 - pct) / 100.0, 9) >= 10:
            best = pct
    return best
