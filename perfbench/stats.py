"""Summary statistics shared by the benchmark's metrics."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100) with linear interpolation between ranks.

    Matches numpy's default ("linear") method.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def gmean(values) -> float:
    """Geometric mean of positive values."""
    logs = []
    for v in values:
        v = float(v)
        if not v > 0.0:
            raise ValueError(f"geometric mean needs positive values, got {v!r}")
        logs.append(math.log(v))
    if not logs:
        raise ValueError("geometric mean of an empty sequence")
    return math.exp(math.fsum(logs) / len(logs))
