"""Small blocking client for the serving tier.

Used by the test suite, the CI smoke job and the load generator; it is
also the reference for how to talk to the API from any HTTP client.
One :class:`ServeClient` holds one keep-alive connection, so it is
cheap to issue many requests from one thread — and NOT thread-safe:
the load generator gives each worker thread its own client.

It speaks the subset of HTTP/1.1 that :mod:`repro.serve.http` serves,
over one plain socket:

* a request is one buffer — request line, ``Host``,
  ``Content-Length``, ``Content-Type`` when there is a body, the
  caller's headers, the body — sent with one ``sendall``, so the
  server's event loop wakes once per request;
* an answer is a status line and headers, bounded by the server's own
  :data:`~repro.serve.http.MAX_LINE` and
  :data:`~repro.serve.http.MAX_HEADERS`, then exactly
  ``Content-Length`` bytes.  No chunked transfer coding, no 1xx
  answers, no pipelining: the server sends none of them.

A general-purpose HTTP client would parse every header block through
a MIME parser and send a POST's head and body in two writes; on a hot
cache that transport cost more CPU than the server's whole answer.

A connection the server dropped while idle (its keep-alive deadline,
say) shows as a failed send or as EOF/reset before the first byte of
the answer; that request is sent once more on a fresh connection.  Any
later failure, a malformed answer and a socket timeout raise, and the
socket is closed so the next call starts clean.
"""

from __future__ import annotations

import json
import socket

from repro.obs.logging import REQUEST_ID_HEADER
from repro.serve.http import MAX_HEADERS, MAX_LINE

#: Longest answer head: a status line and ``MAX_HEADERS`` header lines
#: of at most ``MAX_LINE`` bytes each, CRLFs included.
_MAX_HEAD = (MAX_HEADERS + 1) * MAX_LINE
_RECV = 65536
_REQUEST_ID = REQUEST_ID_HEADER.lower()


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
        self.timeout = timeout
        self._host_header = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        #: The keep-alive connection; ``None`` until the first request
        #: and after a close.
        self._sock: socket.socket | None = None
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
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        send_headers = {"Host": self._host_header, "Content-Length": len(body)}
        if payload is not None:
            send_headers["Content-Type"] = "application/json"
        send_headers.update(headers or {})
        head = f"{method} {path} HTTP/1.1\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in send_headers.items()
        )
        status, answer_headers, raw = self._exchange(
            head.encode("latin-1") + b"\r\n" + body
        )
        self.last_request_id = answer_headers.get(_REQUEST_ID)
        content_type = answer_headers.get("content-type", "")
        if content_type.startswith("application/json"):
            data = json.loads(raw.decode("utf-8")) if raw else {}
        else:
            data = raw.decode("utf-8")
        if status >= 400:
            message = (
                data.get("error", raw.decode("utf-8", "replace"))
                if isinstance(data, dict)
                else str(data)
            )
            raise ServeError(status, message)
        return data

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        """Send ``request``, return ``(status, headers, body)``."""
        for retry in (False, True):
            sock = self._sock or self._connect()
            try:
                sock.sendall(request)
                first = sock.recv(_RECV)
            except OSError as exc:
                # a failed send or a reset before the answer: the server
                # dropped this keep-alive connection, so try a fresh one
                if retry or isinstance(exc, TimeoutError):
                    self.close()
                    raise
                first = b""
            if first:
                break
            self.close()
            if retry:
                raise ConnectionError("server closed the connection unanswered")
        try:
            return self._read_answer(sock, first)
        except BaseException:
            self.close()
            raise

    def _read_answer(
        self, sock: socket.socket, data: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        buf = bytearray(data)
        searched = 0
        while (end := buf.find(b"\r\n\r\n", searched)) < 0:
            if len(buf) > _MAX_HEAD:
                raise ConnectionError("answer head over the size limit")
            searched = max(0, len(buf) - 3)
            chunk = sock.recv(_RECV)
            if not chunk:
                raise ConnectionError("connection closed inside the answer head")
            buf += chunk
        status_line, *lines = buf[:end].decode("latin-1").split("\r\n")
        version, code, *_ = status_line.split(" ", 2) + [""]
        if not version.startswith("HTTP/1.") or len(code) != 3 or not code.isdigit():
            raise ConnectionError(f"malformed status line {status_line[:80]!r}")
        if len(lines) > MAX_HEADERS:
            raise ConnectionError("too many answer headers")
        if len(status_line) + 2 > MAX_LINE:
            raise ConnectionError("answer head line over the size limit")
        headers: dict[str, str] = {}
        for line in lines:
            if len(line) + 2 > MAX_LINE:
                raise ConnectionError("answer head line over the size limit")
            name, sep, value = line.partition(":")
            if not sep:
                raise ConnectionError(f"malformed answer header {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise ConnectionError("answer uses a Transfer-Encoding")
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            raise ConnectionError("answer has no valid Content-Length") from None
        if length < 0:
            raise ConnectionError("answer has a negative Content-Length")

        body = buf[end + 4 :]
        while len(body) < length:
            chunk = sock.recv(_RECV)
            if not chunk:
                raise ConnectionError(
                    f"connection closed after {len(body)} of {length} body bytes"
                )
            body += chunk
        if len(body) > length:
            raise ConnectionError("bytes after the answer body")
        if headers.get("connection", "").lower() == "close":
            self.close()
        return int(code), headers, bytes(body)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

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
