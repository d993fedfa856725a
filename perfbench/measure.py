"""Small, dependency-free statistics helpers for the benchmark.

Kept apart from the workload code so their tests run in milliseconds:
percentile selection with a tail-size rule, failure accounting, and
self-time subtraction over nested spans.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the guide's rule for a reported high percentile: at least this many
#: samples must lie beyond it, or the percentile is not reportable
MIN_TAIL = 10


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_count(samples: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly beyond the rank of ``fraction``."""
    rank = max(1, math.ceil(fraction * len(samples)))
    return len(samples) - rank


def samples_needed(fraction: float, tail: int = MIN_TAIL) -> int:
    """Smallest sample count that leaves ``tail`` samples beyond the
    ``fraction`` percentile (1000 for p99 with a tail of ten)."""
    count = tail + 1
    while tail_count(range(count), fraction) < tail:
        count += 1
    return count


def percentile_with_tail(
    samples: Sequence[float], fraction: float, tail: int = MIN_TAIL
) -> float:
    """:func:`nearest_rank`, refusing when fewer than ``tail`` samples
    lie beyond it (such a percentile is just an outlier)."""
    beyond = tail_count(samples, fraction)
    if beyond < tail:
        raise ValueError(
            f"p{fraction * 100:g} of {len(samples)} samples has only "
            f"{beyond} beyond it; need {tail}"
        )
    return nearest_rank(samples, fraction)


class FailureLedger:
    """Operations attempted and failed, per kind of failure.

    A failure is an operation whose result the user does not get: an
    HTTP error, a timeout, a sweep that ends in a state other than
    ``done``, a tune that raised, or an output that fails its check.
    Recoveries that still deliver a result (task retries, worker
    respawns, serial fallback) are not failures; they are reported as
    per-layer counters.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


#: one recorded span: (id, name, start, end, parent id or None)
SpanTuple = Tuple[int, str, float, float, Optional[int]]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[SpanTuple]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (clipped to the parent, so
    a child that outlives its parent cannot make self time negative)."""
    spans = list(spans)
    bounds = {sid: (start, end) for sid, _name, start, end, _parent in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent in spans:
        if parent is None or parent not in bounds:
            continue
        low, high = bounds[parent]
        clipped = (max(start, low), min(end, high))
        if clipped[0] < clipped[1]:
            children.setdefault(parent, []).append(clipped)
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }


def layer_totals(
    spans: Iterable[SpanTuple],
) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for sid, name, start, end, _parent in spans:
        row = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return totals
