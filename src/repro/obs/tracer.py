"""Span-based wall-clock tracing with a zero-cost disabled mode.

A *span* is one timed region of the run — a pipeline stage, an
episode, a whole experiment — with a name, free-form labels, and its
position in the nesting tree.  ``Tracer.span`` is a context manager::

    with tracer.span("fit", design="aes"):
        model = fit_predictor(...)

When observability is off, :func:`repro.obs.span` hands out
:data:`NULL_SPAN` (a shared, stateless context manager), so
instrumented hot paths pay one attribute lookup and nothing else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanRecord:
    """One finished timed region."""

    name: str
    labels: Dict[str, object]
    start: float          # wall-clock (time.time) at entry
    duration: float       # seconds (perf_counter delta)
    depth: int            # 0 for top-level spans
    parent: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (manifest ``stages`` entries)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "start": self.start,
            "duration_s": self.duration,
            "depth": self.depth,
            "parent": self.parent,
        }


class Tracer:
    """Collects nested :class:`SpanRecord` entries for one run."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[None]:
        """Time a region; records a span when the block exits."""
        depth = len(self._stack)
        parent = self._stack[-1] if self._stack else None
        wall = time.time()
        t0 = time.perf_counter()
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(SpanRecord(
                name=name, labels=labels, start=wall,
                duration=time.perf_counter() - t0,
                depth=depth, parent=parent,
            ))

    def aggregate(self) -> List[Tuple[str, Optional[str], int, int, float]]:
        """Spans grouped by (name, parent): rows of
        ``(name, parent, depth, count, total_seconds)``, ordered by
        first appearance."""
        order: List[Tuple[str, Optional[str]]] = []
        rows: Dict[Tuple[str, Optional[str]], List[float]] = {}
        depths: Dict[Tuple[str, Optional[str]], int] = {}
        # Spans are recorded at exit (children before parents); order
        # rows by entry time so the table reads as a pre-order tree.
        for span in sorted(self.spans, key=lambda s: (s.start, s.depth)):
            key = (span.name, span.parent)
            if key not in rows:
                rows[key] = []
                depths[key] = span.depth
                order.append(key)
            rows[key].append(span.duration)
        return [
            (name, parent, depths[(name, parent)],
             len(rows[(name, parent)]), sum(rows[(name, parent)]))
            for name, parent in order
        ]


class _NullSpan:
    """The do-nothing context manager handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


#: Shared no-op span: every disabled ``span()`` call returns this very
#: object, so the disabled path allocates nothing.
NULL_SPAN = _NullSpan()
