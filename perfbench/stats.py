"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math

TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def tail(values) -> tuple[str, float]:
    """(label, value) of the highest percentile in TAIL_LADDER that has at
    least MIN_BEYOND items ranked above it, by nearest rank. With too few
    items for any of them, the maximum, labelled "max"."""
    ordered = sorted(values)
    n = len(ordered)
    best = ("max", ordered[-1])
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            best = (f"p{p:g}", percentile(ordered, p))
    return best
