"""The benchmark's own HTTP/1.1 client for the ``serve`` workload.

Standard library only, so edits to the program (its load generator or
its client module) cannot move the measuring stick.  One request per
connection, as the daemon closes each connection after its response.
At most ``callers`` requests are in flight at a time.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from stats import due_time

#: Per-request socket timeout (connect, send and each receive).
TIMEOUT_S = 10.0


@dataclass
class Outcome:
    index: int
    due: Optional[float]
    sent: float
    done: Optional[float]  # None: connect error or timeout
    status: Optional[int]
    body: Optional[bytes]
    error: Optional[str]  # "connect_error" | "timeout" | None


def encode(host: str, port: int, method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def call(
    host: str, port: int, raw: bytes, timeout: float = TIMEOUT_S
) -> Tuple[Optional[int], Optional[bytes], Optional[str]]:
    """Send one prebuilt request; ``(status, body, error)``."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout:
        return None, None, "timeout"
    except OSError:
        return None, None, "connect_error"
    chunks = []
    try:
        with sock:
            sock.sendall(raw)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except socket.timeout:
        return None, None, "timeout"
    except OSError:
        return None, None, "connect_error"
    response = b"".join(chunks)
    head, sep, body = response.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None, None, "connect_error"
    return status, body if sep else b"", None


def _run_callers(callers: int, target: Callable[[], None]) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class _Counter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index


def open_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    rate: float,
    callers: int,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """Send request ``i`` when due (``start + i / rate``), or as soon as
    one of ``callers`` connections frees up if all are busy then."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    counter = _Counter()
    start = clock() + 0.05

    def caller() -> None:
        while True:
            index = counter.take()
            if index >= len(requests):
                return
            due = due_time(start, index, rate)
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            status, body, error = call(host, port, requests[index])
            done = None if error else clock()
            outcomes[index] = Outcome(index, due, sent, done, status, body, error)

    _run_callers(callers, caller)
    return outcomes  # type: ignore[return-value]


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    callers: int,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[float, List[Outcome]]:
    """``callers`` clients, each sending its next request on the reply
    to the previous one, until every request is sent.  Returns the phase
    start and the outcomes in request order."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    counter = _Counter()
    start = clock()

    def caller() -> None:
        while True:
            index = counter.take()
            if index >= len(requests):
                return
            sent = clock()
            status, body, error = call(host, port, requests[index])
            done = None if error else clock()
            with lock:
                outcomes.append(Outcome(index, None, sent, done, status, body, error))

    _run_callers(callers, caller)
    outcomes.sort(key=lambda outcome: outcome.index)
    return start, outcomes
