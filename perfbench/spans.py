"""In-memory spans recorded around calls into the program's layers.

A span is (id, name, start, end, parent, query id). Spans are kept in a
list while the benchmark runs and written out once at the end. A span's
self time is its duration minus the part of its interval that its
children cover (overlapping children are merged first, so a child is
never subtracted twice).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None


class Tracer:
    """Records nested spans; ``span()`` nests under the innermost open
    span unless a parent is given explicitly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        sid = len(self.spans)
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0,
                               parent, qid))
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → self time in seconds (children clipped to the parent)."""
    kids: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                kids.setdefault(s.parent, []).append((lo, hi))
    return {s.id: (s.end - s.start) - _covered(kids.get(s.id, []))
            for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + st[s.id]
    return out
