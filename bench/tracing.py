"""In-memory spans recorded from the benchmark around calls into each layer.

A span has a name, a start, an end and the span that caused it.  Spans
nest per thread; a client thread names its parent explicitly.  A
span's self time is its duration minus the part of that interval its
child spans cover, so the self times of a traced run add up to the
wall time the spans account for.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Position in the tracer's span list, set when the span opens.
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        if stack and self._span.parent is None:
            self._span.parent = stack[-1]
        self._span.start = time.perf_counter()
        with self._tracer._lock:
            self._span.index = len(self._tracer.spans)
            self._tracer.spans.append(self._span)
        stack.append(self._span.index)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._span.end = time.perf_counter()
        self._tracer._stack().pop()


class _NullSpan:
    """What a disabled tracer hands out: records nothing."""

    def __enter__(self) -> Span:
        return Span("", 0.0)

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL = _NullSpan()


class Tracer:
    """Records spans when enabled; costs one call per span when not."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: Optional[int] = None, **attrs: Any):
        """Open a span; ``parent`` is needed only for a thread's first span."""
        if not self.enabled:
            return _NULL
        return _Open(self, Span(name, 0.0, parent=parent, attrs=attrs))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        ]
        clipped = [(s, e) for s, e in clipped if e > s]
        out.append(span.duration - _covered(clipped))
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below ``root`` (parents precede children)."""
    inside = {root}
    out = []
    for i, span in enumerate(spans):
        if span.parent in inside:
            inside.add(i)
            out.append(i)
    return out


def coverage(spans: list[Span], root: int, lanes: int = 1) -> float:
    """Share of the root's lane-seconds that layer spans account for.

    ``lanes`` is the number of threads that open spans under the root
    at once; each contributes the root's duration of capacity.
    """
    selfs = self_times(spans)
    covered = sum(selfs[i] for i in descendants(spans, root))
    return covered / (lanes * spans[root].duration)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: count, total duration and total self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own
    return out


def total(spans: list[Span], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(span.duration for span in spans if span.name == name)


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.duration for span in spans if span.name == name]


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span costs, measured on a scratch tracer."""
    scratch = Tracer(enabled=True)
    with scratch.span("root"):
        start = time.perf_counter()
        for _ in range(samples):
            with scratch.span("probe"):
                pass
        elapsed = time.perf_counter() - start
    return elapsed / samples
