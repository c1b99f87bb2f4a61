"""Order statistics and span arithmetic shared by the benchmark scripts."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With TAIL_BEYOND or fewer
    samples no percentile qualifies; the maximum is returned with
    percentile 100 and 0 samples beyond, so the record shows the shortfall.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = len(xs) - TAIL_BEYOND  # 1-based nearest rank
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time of each (start, end, parent) span.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; overlapping children count once. parent is
    the index of the enclosing span, or -1.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (start, end, _), kids in zip(spans, children):
        covered = 0
        reach = start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        result.append(end - start - covered)
    return result

