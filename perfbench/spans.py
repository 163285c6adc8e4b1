"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the pipeline: its name, start and
end (``time.perf_counter`` seconds), the index of the span that was open
when it began, and the run it belongs to. Spans are kept in a list and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run: int | None = None):
        parent = self._open[-1] if self._open else None
        if run is None and parent is not None:
            run = self.spans[parent].run
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent, and overlapping
    children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.duration - _covered(children.get(i, [])) for i, s in enumerate(spans)]
