"""Blocking client for the analysis daemon (stdlib ``http.client``).

The scriptable counterpart of :mod:`repro.serve.daemon`, and the body of
``python -m repro request``.  Raw-byte accessors (``analyze_raw`` /
``assign_raw``) exist because the serving contract is *byte* identity
with the direct façade output -- the byte-identity tests and the CI
smoke compare exactly what came off the wire.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote

from repro.errors import ReproError


class ServeClientError(ReproError):
    """The daemon was unreachable or returned an error response."""


class ServeClient:
    """One daemon endpoint; a fresh connection per request.

    Connection-per-request keeps the client trivially thread-safe (the
    tests fire it from many threads) and matches the daemon's
    ``Connection: close`` responses.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -----------------------------------------------------------
    def request_full(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange; ``(status, headers, body_bytes)``.

        Header names come back lower-cased.  The daemon's out-of-band
        metadata rides here: ``x-repro-source`` (``store``/``computed``)
        and, on memo-routed computations, ``x-repro-memo-hits`` /
        ``x-repro-memo-recomputations`` -- response bodies stay
        byte-identical to direct façade output.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, headers, response.read()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeClientError(
                f"no analysis daemon at {self.host}:{self.port} ({exc}); "
                "start one with 'python -m repro serve'"
            ) from exc
        finally:
            connection.close()

    def request_raw(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, body_bytes)``."""
        status, _, payload = self.request_full(method, path, body)
        return status, payload

    def _json(self, method: str, path: str, body: Optional[bytes] = None) -> Dict[str, Any]:
        status, payload = self.request_raw(method, path, body)
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServeClientError(
                f"daemon returned non-JSON ({status}): {payload[:200]!r}"
            ) from exc
        if status != 200:
            raise ServeClientError(
                f"{method} {path} failed ({status}): "
                f"{data.get('error', payload[:200])}"
            )
        return data

    # -- model requests ------------------------------------------------------
    def analyze_raw(self, model: Dict[str, Any]) -> Tuple[int, bytes]:
        """``POST /v1/analyze``; the exact wire bytes, no re-parsing."""
        return self.request_raw(
            "POST", "/v1/analyze", json.dumps(model).encode("utf-8")
        )

    def analyze_full(
        self, model: Dict[str, Any]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """``POST /v1/analyze`` with response headers (memo metadata)."""
        return self.request_full(
            "POST", "/v1/analyze", json.dumps(model).encode("utf-8")
        )

    def analyze(self, model: Dict[str, Any]) -> Dict[str, Any]:
        """Analyse one system-model dict; the report schema dict back."""
        status, payload = self.analyze_raw(model)
        return self._check_model_response("analyze", status, payload)

    def assign_raw(
        self, model: Dict[str, Any], *, algorithm: Optional[str] = None
    ) -> Tuple[int, bytes]:
        """``POST /v1/assign``; the exact wire bytes, no re-parsing."""
        path = "/v1/assign"
        if algorithm is not None:
            path += f"?algorithm={quote(algorithm)}"
        return self.request_raw("POST", path, json.dumps(model).encode("utf-8"))

    def assign(
        self, model: Dict[str, Any], *, algorithm: Optional[str] = None
    ) -> Dict[str, Any]:
        """Search + validate a priority assignment for one model dict."""
        status, payload = self.assign_raw(model, algorithm=algorithm)
        return self._check_model_response("assign", status, payload)

    @staticmethod
    def _check_model_response(
        verb: str, status: int, payload: bytes
    ) -> Dict[str, Any]:
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ServeClientError(
                f"daemon returned non-JSON ({status}): {payload[:200]!r}"
            ) from exc
        if status != 200:
            raise ServeClientError(
                f"{verb} rejected ({status}): {data.get('error', '?')}"
            )
        return data

    # -- scenario requests ---------------------------------------------------
    def scenarios(self) -> Dict[str, Any]:
        """``GET /v1/scenarios``: the registered catalogue names."""
        return self._json("GET", "/v1/scenarios")

    def scenarios_run_raw(
        self, name: str, *, instances: int = 8, seed: int = 7
    ) -> Tuple[int, bytes]:
        """``POST /v1/scenarios/run``; the exact wire bytes."""
        return self.request_raw(
            "POST",
            "/v1/scenarios/run",
            json.dumps(
                {"scenario": name, "instances": instances, "seed": seed}
            ).encode("utf-8"),
        )

    def scenarios_run(
        self, name: str, *, instances: int = 8, seed: int = 7
    ) -> Dict[str, Any]:
        """Seeded population draw of one registered scenario."""
        status, payload = self.scenarios_run_raw(
            name, instances=instances, seed=seed
        )
        return self._check_model_response("scenarios run", status, payload)

    # -- observability -------------------------------------------------------
    def metrics(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition."""
        status, payload = self.request_raw("GET", "/v1/metrics")
        if status != 200:
            raise ServeClientError(
                f"GET /v1/metrics failed ({status}): {payload[:200]!r}"
            )
        return payload.decode("utf-8")

    def detect_raw(
        self, request: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes]:
        """``POST /v1/detect``; the exact canonical-JSON wire bytes."""
        body = json.dumps(request).encode("utf-8") if request else b""
        return self.request_raw("POST", "/v1/detect", body)

    def detect(
        self,
        *,
        window: Optional[int] = None,
        detectors: Optional[list] = None,
        revalidate: bool = False,
        horizon_periods: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run the anomaly detectors over the daemon's recent window."""
        request: Dict[str, Any] = {}
        if window is not None:
            request["window"] = window
        if detectors is not None:
            request["detectors"] = list(detectors)
        if revalidate:
            request["revalidate"] = True
        if horizon_periods is not None:
            request["horizon_periods"] = horizon_periods
        if limit is not None:
            request["limit"] = limit
        status, payload = self.detect_raw(request)
        return self._check_model_response("detect", status, payload)

    # -- control plane -------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def shutdown(self) -> Dict[str, Any]:
        return self._json("POST", "/v1/shutdown")


def wait_until_ready(
    host: str,
    port: int,
    *,
    timeout: float = 10.0,
    interval: float = 0.05,
) -> ServeClient:
    """Poll ``/v1/health`` until the daemon answers; return a client."""
    client = ServeClient(host, port, timeout=max(interval, 1.0))
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            client.health()
            return ServeClient(host, port)
        except ServeClientError as exc:
            last_error = exc
            time.sleep(interval)
    raise ServeClientError(
        f"daemon at {host}:{port} not ready after {timeout} s: {last_error}"
    )
