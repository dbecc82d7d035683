"""In-memory span recorder and the arithmetic on its span tree.

A span is one call into a layer: a name, a start and end time from
`time.perf_counter`, and the index of the span that was open when it began
(its parent).  Spans are kept in a list and summarised after the call that
is being traced returns.

The self time of a span is its duration minus the part of its interval
that its direct children cover.  Because every span of a traced call
descends from the root span, the self times of all spans add up to the
root's duration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus what its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            # clip to the parent so a child can never remove more than it has
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and total self time.

    Total time skips a span nested inside a span of the same name, so a
    recursive call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        if not _has_ancestor_named(spans, i, s.name):
            agg["s"] += s.duration
    return out


def roots(spans: list[Span]) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent is None]


class Tracer:
    """Records spans for wrapped callables; one thread, one stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        """Wrap fn so each call records a span called `name`.

        on_return(args, kwargs, result) runs after the span closes; it is
        where exact work counters are taken from arguments and results.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced
