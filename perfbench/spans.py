"""Span recording and the arithmetic that turns spans into layer numbers.

A span is ``[name, start, end, parent]``: times in seconds on the system-wide
monotonic clock (shared by every process on the host, so a span opened in the
benchmark and one closed in an op process line up), and ``parent`` the index
of the enclosing span in the same list, or ``None`` for a root span.

This module is imported both by the op-process launcher, where it must stay
cheap to import, and by run.py.
"""

from __future__ import annotations

import time

now = time.monotonic


class Tracer:
    """Collects spans and counters in memory for one op process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that has already ended, under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = now()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        clipped = [(max(a, start), min(b, end)) for a, b in kids if b > start and a < end]
        out.append((end - start) - union_length(clipped))
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Wall time inside spans of each name, a nested repeat counted once."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    for name, start, end, _ in spans:
        by_name.setdefault(name, []).append((start, end))
    return {name: union_length(iv) for name, iv in by_name.items()}


def covered(spans) -> float:
    """Wall time inside any root span."""
    return union_length([(s, e) for _, s, e, parent in spans if parent is None])
