"""Request coalescing + micro-batching for the analysis daemon.

Concurrent requests that arrive within a short window are collected into
one batch and dispatched together (in the daemon, one
:func:`repro.serve.daemon.compute_models` call).  Within a batch,
requests with the same content key (the model's ``canonical_sha256``)
are *coalesced*: the computation runs once and every waiter gets the
same response bytes.

The batcher is transport-agnostic: ``submit()`` is awaited by the HTTP
handlers, the synchronous ``dispatch`` callable runs on a dedicated
worker thread so the event loop keeps accepting (and coalescing) new
requests while a batch computes.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from repro.exec.threads import single_thread_executor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Queue sentinel asking the worker loop to exit.
_CLOSE = object()

#: A dispatch function: ``(group, payloads) -> results`` with one result
#: per payload, in order.  Runs on the batcher's worker thread.
Dispatch = Callable[[Tuple[str, ...], List[Any]], List[Any]]


@dataclass
class _Request:
    group: Tuple[str, ...]
    key: Hashable
    payload: Any
    future: "asyncio.Future[Any]" = field(repr=False, default=None)


class MicroBatcher:
    """Coalesce awaited submissions into batched dispatch calls.

    Parameters
    ----------
    dispatch:
        Synchronous batch computation, called once per ``group`` present
        in a collected batch with the group's unique payloads (arrival
        order preserved).  Groups keep requests that cannot share one
        batched call apart -- ``("analyze",)`` vs ``("assign", algo)``.
    window:
        Maximum seconds to keep collecting after the first request of a
        batch arrives.  ``0`` still drains everything already queued (so
        a burst that accumulated while a previous batch computed is
        batched too), it just never waits for more.
    quiet_gap:
        Dispatch *early* once no new request has arrived for this many
        seconds -- when every in-flight client is already in the batch,
        sitting out the rest of the window would only add latency.
        Defaults to ``min(window, 1 ms)``; under sustained load the gap
        never fires and batches fill to ``window``/``max_batch``.
    max_batch:
        Hard cap on requests collected per batch.
    """

    def __init__(
        self,
        dispatch: Dispatch,
        *,
        window: float = 0.005,
        max_batch: int = 64,
        quiet_gap: Optional[float] = None,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if quiet_gap is None:
            quiet_gap = min(window, 0.001)
        if quiet_gap < 0:
            raise ValueError(f"quiet_gap must be >= 0, got {quiet_gap}")
        self._dispatch = dispatch
        self.window = window
        self.quiet_gap = quiet_gap
        self.max_batch = max_batch
        # Created in start(), on the running loop: constructing asyncio
        # primitives outside a loop binds them to the wrong loop on
        # Python 3.9 (the oldest interpreter this package supports).
        self._queue: Optional["asyncio.Queue[Any]"] = None
        self._worker: Optional[asyncio.Task] = None
        self._executor = single_thread_executor("repro-serve-dispatch")
        self._closing = False
        self.n_requests = 0
        self.n_batches = 0
        self.n_coalesced = 0
        self.largest_batch = 0

    def start(self) -> None:
        """Start the collector task on the running event loop."""
        if self._worker is None:
            self._queue = asyncio.Queue()
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def submit(
        self, group: Tuple[str, ...], key: Hashable, payload: Any
    ) -> Any:
        """Enqueue one request and await its (possibly shared) result."""
        if self._closing or self._queue is None:
            raise RuntimeError("batcher is closed")
        request = _Request(group=group, key=key, payload=payload)
        request.future = asyncio.get_running_loop().create_future()
        await self._queue.put(request)
        # Lost a race with close()?  The collector may already be past
        # its final drain; fail fast rather than awaiting a future
        # nothing will ever resolve.
        if self._closing and not request.future.done():
            request.future.set_exception(RuntimeError("batcher is closed"))
        return await request.future

    async def close(self) -> None:
        """Drain in-flight work, stop the collector, release the thread."""
        if self._worker is None:
            return
        self._closing = True
        await self._queue.put(_CLOSE)
        await self._worker
        self._worker = None
        self._executor.shutdown(wait=True)
        # Requests that slipped into the queue around the sentinel get a
        # clean error instead of a forever-pending future (their HTTP
        # handlers turn it into a 500 before the server closes).
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _CLOSE and not item.future.done():
                item.future.set_exception(RuntimeError("batcher is closed"))

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _CLOSE:
                return
            batch = [first]
            closing = self._collect_ready(batch)
            if not closing and self.window > 0:
                deadline = loop.time() + self.window
                while len(batch) < self.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        # Bounded by the quiet gap: an empty queue for
                        # quiet_gap seconds means the burst has fully
                        # arrived -- dispatch instead of padding latency.
                        item = await asyncio.wait_for(
                            self._queue.get(),
                            timeout=min(remaining, self.quiet_gap)
                            if self.quiet_gap > 0
                            else remaining,
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _CLOSE:
                        closing = True
                        break
                    batch.append(item)
            await self._dispatch_batch(batch)
            if closing:
                return

    def _collect_ready(self, batch: List[_Request]) -> bool:
        """Drain already-queued requests into ``batch`` without waiting."""
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _CLOSE:
                return True
            batch.append(item)
        return False

    async def _dispatch_batch(self, batch: List[_Request]) -> None:
        self.n_batches += 1
        self.n_requests += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))

        grouped: "OrderedDict[Tuple[str, ...], List[_Request]]" = OrderedDict()
        for request in batch:
            grouped.setdefault(request.group, []).append(request)

        loop = asyncio.get_running_loop()
        for group, requests in grouped.items():
            # Coalesce: one computation per distinct content key.
            unique: "Dict[Hashable, List[_Request]]" = OrderedDict()
            for request in requests:
                unique.setdefault(request.key, []).append(request)
            self.n_coalesced += len(requests) - len(unique)
            payloads = [waiters[0].payload for waiters in unique.values()]
            try:
                results = await loop.run_in_executor(
                    self._executor, self._dispatch, group, payloads
                )
                if len(results) != len(payloads):
                    raise RuntimeError(
                        f"dispatch returned {len(results)} results for "
                        f"{len(payloads)} payloads (group {group!r})"
                    )
            except Exception as exc:  # noqa: BLE001 -- fan the failure out
                for waiters in unique.values():
                    for request in waiters:
                        if not request.future.done():
                            request.future.set_exception(exc)
                continue
            for waiters, result in zip(unique.values(), results):
                for request in waiters:
                    if not request.future.done():
                        request.future.set_result(result)

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.n_requests,
            "batches": self.n_batches,
            "coalesced": self.n_coalesced,
            "largest_batch": self.largest_batch,
            "window_seconds": self.window,
            "quiet_gap_seconds": self.quiet_gap,
            "max_batch": self.max_batch,
        }
