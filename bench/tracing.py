"""Spans and counters recorded from outside the strz package.

A traced run patches the module-level names through which one strz layer
calls the next (for example ``strz.solver.evaluate`` or ``numpy.fft.fftn``)
with wrappers that open a span around each call.  Spans are kept in memory
as (name, start, end, parent) rows and written out only when the run ends;
self time is a span's duration minus the part of it its children cover.
Every patch is undone when the ``patched`` context exits.
"""
from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans


class Tracer:
    """In-memory span log plus integer and float counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call; ``on_call``
        sees the positional arguments and the result to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(f"{name}.calls")
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children: Dict[Optional[int], List[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            children[s.parent].append(i)
        out: Dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            covered = _union_length(
                (self.spans[c].start, self.spans[c].end) for c in children.get(i, ())
            )
            out[s.name] += (s.end - s.start) - covered
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def top_level_time(self) -> float:
        return _union_length((s.start, s.end) for s in self.spans if s.parent is None)

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@contextmanager
def patched(targets: Iterable[Tuple[object, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target and put
    every original back on exit, even when the body raises."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
