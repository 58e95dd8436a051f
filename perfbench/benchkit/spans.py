"""In-memory spans around the benchmark's calls into each layer.

A :class:`Tracer` records one :class:`Span` per ``with tracer.span(name)``
block: its name, start and end (``perf_counter_ns``), its own id, the id
of the span that was open on the same thread when it started (its
parent) and a trace id shared by every span of one request.  Spans stay
in memory until the run ends and are then written out with
:meth:`Tracer.dump`.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (overlapping children are counted once), i.e. the
time spent in the layer itself rather than in the layers it called.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "covered_ns", "self_time_ns"]


@dataclass
class Span:
    """One timed call."""

    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def covered_ns(start_ns: int, end_ns: int, intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start_ns, end_ns]``."""
    clipped = sorted(
        (max(lo, start_ns), min(hi, end_ns)) for lo, hi in intervals if hi > start_ns and lo < end_ns
    )
    total = 0
    cursor = start_ns
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time_ns(span: Span, children: List[Span]) -> int:
    """``span``'s duration minus the time its ``children`` cover."""
    intervals = [(child.start_ns, child.end_ns) for child in children]
    return span.duration_ns - covered_ns(span.start_ns, span.end_ns, intervals)


class Tracer:
    """Collects spans; thread-safe, parent links are per thread."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: Optional[int] = None) -> Iterator[Span]:
        """Time the block as one span (child of the thread's open span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else span_id
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=trace_id,
            start_ns=time.perf_counter_ns(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self._spans.append(record)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def durations_ms(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [span.duration_ns / 1e6 for span in self.spans if span.name == name]

    def self_times_ms(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by span name (milliseconds)."""
        spans = self.spans
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        grouped: Dict[str, List[float]] = {}
        for span in spans:
            grouped.setdefault(span.name, []).append(
                self_time_ns(span, children.get(span.span_id, [])) / 1e6
            )
        return grouped

    def dump(self, path: Path) -> Path:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        return path
