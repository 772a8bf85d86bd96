"""In-memory spans around calls into the program's public functions.

The traced runs wrap library functions from the benchmark's own files;
nothing in ``src/`` records spans.  Each span holds its name, start, end,
parent span and the item (task set, instance or request) it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Any


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, item: Any = None) -> Iterator[None]:
        """Time a block; nests under the thread's open span, inheriting its item."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if item is None and parent is not None:
            item = parent.item
        opened = Span(self._new_id(), name, self.clock(), 0.0,
                      None if parent is None else parent.id, item)
        stack.append(opened)
        try:
            yield
        finally:
            stack.pop()
            closed = opened._replace(end=self.clock())
            with self._lock:
                self.spans.append(closed)

    def record(self, name: str, start: float, end: float, item: Any = None) -> None:
        """Add a root span timed elsewhere (coroutines interleave on one thread)."""
        with self._lock:
            self._next_id += 1
            self.spans.append(Span(self._next_id, name, start, end, None, item))

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        item_of: Optional[Callable[..., Any]] = None,
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``on_result(result, *args)`` counts what it did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = item_of(*args, **kwargs) if item_of is not None else None
            with self.span(name, item):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, raw, **options)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the time its child spans
    cover.  Children open and close inside their parent on the parent's
    thread, so they never overlap one another and their durations add.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += max(0.0, (span.end - span.start) - covered[span.id])
    return dict(totals)


def to_rows(spans: List[Span]) -> List[list]:
    """Spans as JSON-ready rows ``[id, name, start, end, parent, item]``."""
    return [list(span) for span in spans]


def from_rows(rows: List[list]) -> List[Span]:
    return [Span(*row) for row in rows]
