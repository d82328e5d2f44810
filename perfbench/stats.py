"""Order statistics for the end-to-end timings."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def nearest_rank(values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    xs = sorted(values)
    rank = max(1, -(-p * len(xs) // 100))
    return xs[rank - 1]


def tail_percentile(n, beyond=MIN_BEYOND):
    """Highest whole percentile whose nearest-rank value has at least
    `beyond` of n samples above its rank, or None when n <= beyond."""
    if n <= beyond:
        return None
    return 100 * (n - beyond) // n


def timing_summary(durations):
    """Median, tail value, tail percentile and sample count of durations.

    The tail percentile is tail_percentile(n) but never below 50: with fewer
    than 20 samples no percentile above the median keeps ten beyond it, and
    the tail is then the nearest-rank median."""
    n = len(durations)
    p = max(tail_percentile(n) or 0, 50)
    return {"p50": statistics.median(durations), "tail": nearest_rank(durations, p),
            "tail_percentile": p, "samples": n}
