"""Small blocking client for the serving tier.

Used by the test suite, the CI smoke job and the load generator; it is
also the reference for how to talk to the API from any HTTP client.
One :class:`ServeClient` holds one keep-alive connection, so it is
cheap to issue many requests from one thread — and NOT thread-safe:
the load generator gives each worker thread its own client.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

from repro.obs.logging import REQUEST_ID_HEADER


class ServeError(RuntimeError):
    """A non-2xx answer from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """Blocking JSON client over one keep-alive connection."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8030, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self._conn = HTTPConnection(host, port, timeout=timeout)
        #: Request id the server stamped on the most recent response
        #: (X-Repro-Request-Id) — the handle for log/trace correlation.
        self.last_request_id: str | None = None

    # -- plumbing ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ):
        body = None if payload is None else json.dumps(payload)
        send_headers = dict(headers or {})
        if body is not None:
            send_headers.setdefault("Content-Type", "application/json")
        try:
            self._conn.request(method, path, body=body, headers=send_headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (ConnectionError, BrokenPipeError):
            # server dropped the keep-alive connection: retry once fresh
            self._conn.close()
            self._conn.request(method, path, body=body, headers=send_headers)
            response = self._conn.getresponse()
            raw = response.read()
        self.last_request_id = response.getheader(REQUEST_ID_HEADER)
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            data = json.loads(raw.decode("utf-8")) if raw else {}
        else:
            data = raw.decode("utf-8")
        if response.status >= 400:
            message = (
                data.get("error", raw.decode("utf-8", "replace"))
                if isinstance(data, dict)
                else str(data)
            )
            raise ServeError(response.status, message)
        return data

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- API methods ---------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")

    def store_stats(self) -> dict:
        return self._request("GET", "/v1/store/stats")

    def solve(self, *, request_id: str | None = None, **fields) -> dict:
        """POST /v1/solve; ``fields`` are ExperimentConfig fields plus
        ``scheme`` (e.g. ``solve(matrix="wathen100", scheme="RD",
        nranks=8, n_faults=2, scale=0.25)``).  A caller-supplied
        ``request_id`` rides the X-Repro-Request-Id header and is
        honored by the server."""
        headers = None
        if request_id is not None:
            headers = {REQUEST_ID_HEADER: request_id}
        return self._request("POST", "/v1/solve", fields, headers=headers)

    def project(self, sizes: list[int], schemes: list[str] | None = None) -> dict:
        payload: dict = {"sizes": sizes}
        if schemes is not None:
            payload["schemes"] = schemes
        return self._request("POST", "/v1/project", payload)

    def reports(self) -> dict:
        return self._request("GET", "/v1/reports")

    def report(self, key: str) -> dict:
        return self._request("GET", f"/v1/reports/{key}")

    def diff(self, key_a: str, key_b: str) -> dict:
        return self._request("GET", f"/v1/reports/diff?a={key_a}&b={key_b}")
