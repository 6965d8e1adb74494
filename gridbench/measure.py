"""Statistics shared by the benchmark's parent and child processes.

Pure functions with no dependency on the simulator, so the tests can pin
them down without running a workload.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Percentiles considered for a tail figure, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is only reported when at least this many samples lie
#: beyond it; a tail read from fewer samples is one outlier.
MIN_BEYOND = 10


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_CANDIDATES) -> float | None:
    """The highest candidate percentile with >= ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even the lowest has too few."""
    best = None
    for pct in candidates:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND:
            best = pct if best is None else max(best, pct)
    return best


def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile (the same rule as numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def mean_abs_log_ratio(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean of ``|ln(simulated / reference)|`` over ``(simulated, reference)``.

    Symmetric in over- and under-shoot (2x and 0.5x score the same), and
    zero only when every simulated value equals its reference.
    """
    terms = []
    for simulated, reference in pairs:
        if not (simulated > 0 and reference > 0):
            raise ValueError(f"log ratio needs positive values, got {simulated}/{reference}")
        terms.append(abs(math.log(simulated / reference)))
    if not terms:
        raise ValueError("model error over no reference values")
    return sum(terms) / len(terms)


def worker_idle_s(spans: Sequence[tuple[float, float]], workers: int) -> float:
    """Idle worker-seconds while a pool of ``workers`` ran ``spans``.

    The pool is busy from the first cell start to the last cell finish;
    whatever of that capacity no cell used was lost to stragglers, pool
    start-up or dispatch gaps.
    """
    if not spans:
        return 0.0
    start = min(s for s, _ in spans)
    end = max(f for _, f in spans)
    busy = sum(f - s for s, f in spans)
    return max(0.0, workers * (end - start) - busy)
