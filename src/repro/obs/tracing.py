"""Tracing spans along the serving hot path, plus the JSON-lines event log.

A :class:`RequestTrace` rides one request through
``daemon -> MicroBatcher -> ResultStore -> facade -> memo -> RTA
kernels``: each stage opens a :meth:`RequestTrace.span` around its work
and drops cache-outcome annotations (``store=hit_memory``,
``memo_hits=7``) as it goes.  The daemon surfaces the id via the
``X-Repro-Trace-Id`` response header and, when an event log is
configured, appends the finished trace as one structured JSON line --
so a served request can be joined from client header to on-disk
timeline.

Trace ids are ``<run>-<seq>``: a per-process random hex prefix plus a
monotone sequence number.  That keeps ids unique across daemons while
the sequence part stays human-orderable within one run.

Everything here is allocation-light; trace data rides in headers and
the event log only, so response bodies stay byte-identical.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

_RUN_PREFIX = os.urandom(4).hex()
_SEQUENCE = itertools.count(1)


def next_trace_id() -> str:
    """A process-unique, human-orderable trace id (``9f21c3a0-17``)."""
    return f"{_RUN_PREFIX}-{next(_SEQUENCE)}"


class RequestTrace:
    """Per-stage wall time and annotations for one served request.

    Span timings use :func:`time.perf_counter` deltas; the trace itself
    is stamped once with wall-clock ``time.time()`` so event-log lines
    order across processes.  Spans may be opened from any thread (the
    batcher dispatches on its own worker thread), guarded by one lock.
    """

    __slots__ = (
        "trace_id", "endpoint", "started_unix", "_start",
        "_lock", "spans", "annotations", "status", "duration_seconds",
    )

    def __init__(self, endpoint: str, trace_id: Optional[str] = None):
        self.trace_id = trace_id or next_trace_id()
        self.endpoint = endpoint
        self.started_unix = time.time()
        self._start = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: List[Dict[str, Any]] = []
        self.annotations: Dict[str, Any] = {}
        self.status: Optional[int] = None
        self.duration_seconds: Optional[float] = None

    @contextmanager
    def span(self, stage: str, **annotations: Any) -> Iterator[None]:
        """Time a stage; annotations merge into the span record."""
        offset = time.perf_counter() - self._start
        start = time.perf_counter()
        try:
            yield
        finally:
            record: Dict[str, Any] = {
                "stage": stage,
                "offset_seconds": round(offset, 9),
                "seconds": round(time.perf_counter() - start, 9),
            }
            if annotations:
                record.update(annotations)
            with self._lock:
                self.spans.append(record)

    def add_span(self, stage: str, seconds: float, **annotations: Any) -> None:
        """Record an externally timed stage (e.g. measured in the batcher)."""
        record: Dict[str, Any] = {
            "stage": stage,
            "seconds": round(seconds, 9),
        }
        if annotations:
            record.update(annotations)
        with self._lock:
            self.spans.append(record)

    def annotate(self, **annotations: Any) -> None:
        with self._lock:
            self.annotations.update(annotations)

    def finish(self, status: int) -> None:
        self.status = status
        self.duration_seconds = round(time.perf_counter() - self._start, 9)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "endpoint": self.endpoint,
                "started_unix": round(self.started_unix, 6),
                "status": self.status,
                "duration_seconds": self.duration_seconds,
                "spans": list(self.spans),
                "annotations": dict(self.annotations),
            }


class EventLog:
    """Append-only JSON-lines sink for finished traces and findings.

    Lines are standard ``json.dumps`` with sorted keys (not the
    canonical non-finite-sentinel form: an event log is a timeline, not
    a hashed artifact).  Writes are serialised by a lock and flushed per
    line so a tail-follower sees events promptly.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )
        self.events_written = 0

    def emit(self, kind: str, payload: Dict[str, Any]) -> None:
        record = {"kind": kind, **payload}
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.events_written += 1

    def emit_trace(self, trace: RequestTrace) -> None:
        self.emit("trace", trace.to_dict())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse an event log back into records (skipping torn last lines)."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
    return events
