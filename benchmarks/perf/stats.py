"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it (always an observed value).

    ``repro.service.metrics.percentile`` rounds the rank to the nearest
    index instead, which on small samples reports p99 one rank low; the
    benchmark states how many samples lie beyond the rank it reports, so it
    uses the textbook definition.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median.

    Interquartile distance (``statistics.quantiles(n=4)``, the driver's own
    definition) with four or more values, the full range with fewer.
    """
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median with min/max/spread alongside, plus the raw values."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "spread": spread(values),
        "values": list(values),
    }
