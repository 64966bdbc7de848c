"""Minimal asyncio HTTP/1.1 server for the serving tier.

No web framework: requests are parsed from the stream with stdlib
``asyncio`` and answered through an app callback, which keeps the
serving tier dependency-free (ISSUE: stdlib ``asyncio`` + ``http``
only).  Supported surface is exactly what the API needs — GET/POST,
Content-Length bodies, keep-alive — with hard limits on line, header
and body sizes so a misbehaving client cannot balloon memory.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.obs.logging import get_logger

_log = get_logger("serve.http")

#: Request-line / header-line size cap, bytes.
MAX_LINE = 8192
#: Header count cap per request.
MAX_HEADERS = 64
#: Request-body size cap, bytes (solve/project payloads are tiny).
MAX_BODY = 1 << 20

SERVER_NAME = "repro-serve"

#: How long a stopped :class:`BackgroundServer` lets the connection
#: handlers it EOF'd unwind before calling one stuck, seconds.
SHUTDOWN_GRACE_S = 5.0


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self):
        """Decode the body as JSON; empty body decodes to ``{}``."""
        if not self.body:
            return {}
        return json.loads(self.body.decode("utf-8"))


@dataclass(frozen=True)
class HttpResponse:
    """One response; helpers build the common shapes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200) -> "HttpResponse":
        # allow_nan=False would raise on the projection's legitimate
        # infinities; the app converts those to None before this point,
        # so strict JSON here is a guard, not a limitation.
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def text(cls, text: str, status: int = 200) -> "HttpResponse":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @classmethod
    def error(cls, status: int, message: str) -> "HttpResponse":
        return cls.json({"error": message}, status=status)


class BadRequest(Exception):
    """Malformed HTTP that still deserves a 400 answer."""


async def _read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests
        raise BadRequest("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("request line too long") from None
    if len(line) > MAX_LINE:
        raise BadRequest("request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest("malformed request line")
    method, target, version = parts

    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise BadRequest("truncated headers") from None
        if len(line) > MAX_LINE:
            raise BadRequest("header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADERS:
            raise BadRequest("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest("malformed header")
        headers[name.strip().lower()] = value.strip()

    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise BadRequest(f"bad Content-Length {length_raw!r}") from None
    if length < 0 or length > MAX_BODY:
        raise BadRequest("body too large")
    body = await reader.readexactly(length) if length else b""

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    # keep-alive is the HTTP/1.1 default; HTTP/1.0 must opt in
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    headers["_keep_alive"] = "1" if keep_alive else "0"
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def _render(response: HttpResponse, *, keep_alive: bool) -> bytes:
    reason = HTTPStatus(response.status).phrase
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{k}: {v}" for k, v in response.headers.items())
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body


class ServeServer:
    """The listening side: accepts connections, drives the app.

    ``app`` is any ``async (HttpRequest) -> HttpResponse`` callable —
    in production :meth:`repro.serve.app.ServeApp.handle`.  ``port=0``
    binds an ephemeral port (tests); the bound port is ``self.port``
    after :meth:`start`.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8030) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections, each with the task running its handler.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("listening", host=self.host, port=self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            _log.info("stopped", host=self.host, port=self.port)
        # nudge idle keep-alive connections: closing the transport EOFs
        # their parked read, so handlers unwind on their normal path
        # instead of needing to be cancelled
        for writer in list(self._connections):
            writer.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except BadRequest as exc:
                    _log.warning("bad request", error=str(exc))
                    writer.write(
                        _render(
                            HttpResponse.error(400, str(exc)), keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                keep_alive = request.headers.get("_keep_alive") == "1"
                try:
                    response = await self.app(request)
                except Exception as exc:  # app bug: answer, don't drop
                    response = HttpResponse.error(
                        500, f"{type(exc).__name__}: {exc}"
                    )
                writer.write(_render(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange
        finally:
            del self._connections[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class BackgroundServer:
    """A :class:`ServeServer` on its own thread + event loop.

    What the test suite and the serving benchmark use to stand a real
    server up in-process: ``start()`` blocks until the socket is bound
    (``port=0`` for an ephemeral port) and returns the port; ``stop()``
    shuts the loop down and joins the thread, and raises if a connection
    handler had to be cancelled to get there.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = ServeServer(app, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        #: Connection handlers that outlived the shutdown grace period.
        self._stuck: set[asyncio.Task] = set()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> int:
        if self._thread is not None:
            raise RuntimeError("already started")
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            self._ready.set()
            self._loop.run_forever()
            self._loop.run_until_complete(self.server.stop())
            # stop() EOF'd every open connection, so the keep-alive
            # handlers unwind on their own; give them a moment.  They
            # are all the server owns: whatever else lives on the loop
            # (the app's metrics sampler never finishes) is cancelled
            # at once, as asyncio.run would
            handlers = set(self.server._connections.values())
            if handlers:
                _, self._stuck = self._loop.run_until_complete(
                    asyncio.wait(handlers, timeout=SHUTDOWN_GRACE_S)
                )
            for task in asyncio.all_tasks(self._loop):
                task.cancel()
            pending = asyncio.all_tasks(self._loop)
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server did not come up within 30s")
        return self.server.port

    def stop(self) -> None:
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._thread = None
        if self._stuck:
            raise RuntimeError(
                f"{len(self._stuck)} connection handler(s) still running "
                f"{SHUTDOWN_GRACE_S:g}s after shutdown"
            )

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
