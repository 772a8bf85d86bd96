"""The daemon's hand-written HTTP/1.1 reader on malformed and fuzzed input.

Every request the reader cannot make sense of is the client's fault: it
must get a 400, never a 500 (which would mean an unhandled exception in
the daemon), and never hang a handler past ``read_timeout``.  The fuzz
test sends raw bytes over a real socket, so each input passes through
the ``asyncio.StreamReader`` that ``asyncio.start_server`` builds.
"""

from __future__ import annotations

import json
import os
import re
import socket

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serve import (
    AnalysisDaemon,
    ServeClientError,
    run_daemon_in_thread,
    wait_until_ready,
)

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "system.json"
)

#: The daemon's receive budget in these tests; every input must be
#: answered (or closed) within it, plus compute time for valid models.
READ_TIMEOUT = 2.0

_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n")


@pytest.fixture(scope="module")
def daemon():
    daemon = AnalysisDaemon(port=0, read_timeout=READ_TIMEOUT)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    yield daemon
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeClientError:
            pass
        thread.join(timeout=10)
    assert not thread.is_alive()


def _exchange(daemon, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the daemon closes."""
    with socket.create_connection((daemon.host, daemon.port)) as sock:
        sock.settimeout(READ_TIMEOUT + 10.0)
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the daemon may answer and close before reading it all
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our unread bytes pending: a reset
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status(response: bytes) -> int:
    """The status of exactly one well-formed response."""
    match = _STATUS.match(response)
    assert match, response[:200]
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, response[:200]
    lengths = re.findall(rb"\r\nContent-Length: (\d+)\r\n", head + b"\r\n")
    assert len(lengths) == 1, head
    assert int(lengths[0]) == len(body), (lengths, len(body))
    return int(match.group(1))


def _valid_request() -> bytes:
    with open(EXAMPLE, "rb") as handle:
        body = json.dumps(json.load(handle)).encode("utf-8")
    return (
        b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n"
        + b"Content-Length: %d\r\n\r\n" % len(body)
        + body
    )


class TestMalformedRequestsAre400:
    def test_invalid_ipv6_target(self, daemon):
        assert _status(_exchange(daemon, b"GET //[ HTTP/1.1\r\n\r\n")) == 400

    def test_request_line_over_the_line_limit(self, daemon):
        line = b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        assert _status(_exchange(daemon, line)) == 400

    def test_header_line_over_the_line_limit(self, daemon):
        request = (
            b"GET /v1/health HTTP/1.1\r\nX-Big: "
            + b"b" * (70 * 1024)
            + b"\r\n\r\n"
        )
        assert _status(_exchange(daemon, request)) == 400

    @pytest.mark.parametrize(
        "length",
        [b"1_0", b"+10", b"-5", b"0x10", b"1 0", "\u0661\u0660".encode()],
        ids=["underscore", "plus", "minus", "hex", "space", "arabic-indic"],
    )
    def test_content_length_takes_only_ascii_digits(self, daemon, length):
        # int() reads most of these as 10, the size of the body sent, so
        # a lenient reader would answer the health check with a 200.
        request = (
            b"GET /v1/health HTTP/1.1\r\nContent-Length: "
            + length
            + b"\r\n\r\n"
            + b"0123456789"
        )
        assert _status(_exchange(daemon, request)) == 400

    def test_valid_request_still_served(self, daemon):
        assert _status(_exchange(daemon, _valid_request())) == 200

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff\xfe\x00garbage",  # not UTF-8
            b"[" * 5000,  # nested past the recursion limit
            b'{"tasks": [{"name": "t", "period": 1e400, "wcet": 1}]}',
            b'{"tasks": [{"name": "t", "period": 1, "wcet": 0.5,'
            b' "priority": 1e400}]}',
            b'{"tasks": [{"name": "t", "period": 1' + b"0" * 5000 + b"}]}",
        ],
        ids=["bad-utf8", "deep-nesting", "inf-period", "inf-priority", "long-int"],
    )
    def test_hostile_model_bodies(self, daemon, body):
        request = (
            b"POST /v1/analyze HTTP/1.1\r\n"
            + b"Content-Length: %d\r\n\r\n" % len(body)
            + body
        )
        assert _status(_exchange(daemon, request)) == 400


@st.composite
def _mutated_requests(draw):
    """A valid analyze request with a few byte-level edits."""
    data = bytearray(_valid_request())
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        else:
            del data[at:]
    return bytes(data)


class TestReaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(max_size=512), _mutated_requests()))
    def test_one_response_never_500(self, daemon, data):
        assume(b"shutdown" not in data)
        response = _exchange(daemon, data)
        if response:  # an empty read is a clean close
            assert _status(response) != 500
