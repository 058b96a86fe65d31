"""The benchmark's own arithmetic: percentiles, self time, failure tally.

Kept free of any ``repro`` import so the tests in ``test_perfbench.py``
exercise it without the program under test.
"""

from __future__ import annotations

import math

#: Percentiles a run may report, lowest first.  A run reports the
#: highest one that leaves at least ``TAIL_SAMPLES`` samples beyond it.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The nearest-rank *q*-th percentile of *samples* (0 < q <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ``TAIL_SAMPLES``
    samples beyond it out of *count*; ``None`` when even the median
    lacks them.  p99 therefore needs at least 1,000 samples."""
    best = None
    for q in PERCENTILE_LADDER:
        # round() absorbs float error: 1000 * (1 - 0.99) is 9.999...
        if round(count * (100.0 - q) / 100.0, 6) >= TAIL_SAMPLES:
            best = q
    return best


def tail_report(samples) -> tuple[float, float] | None:
    """``(q, value)`` for the reportable tail percentile of *samples*."""
    q = tail_percentile(len(samples))
    if q is None:
        return None
    return q, percentile(samples, q)


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each child clipped to the parent.

    *spans* holds ``(span_id, name, start, end, parent_id)`` tuples.
    Children that overlap one another (spans of other threads or tasks
    parented here) are counted once, never twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {}
    for span_id, _name, start, end, parent in spans:
        by_id[span_id] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (start, end) in by_id.items():
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(span_id, ())
                   if min(e, end) > max(s, start)]
        result[span_id] = (end - start) - union_length(clipped)
    return result


class Tally:
    """Attempted and failed operations of one run, with the reasons.

    A failed, refused, wrong-answer or unclean operation is one
    failure; the reasons keep the first few messages for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok

    def fail(self, reason: str) -> None:
        """A failure found outside any single operation (hygiene,
        oracle set-up): counted as one more failed attempt."""
        self.record(False, reason)

    def merge(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += attempted
        self.failed += failed
        for reason in reasons:
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
