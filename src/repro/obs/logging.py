"""Structured JSONL logging: schema'd records, pluggable sinks and clock.

This is the operational half of ``repro.obs``: where the telemetry
bundle (:mod:`repro.obs.telemetry`) captures one *run* for later
analysis, the structured log is the live narration of a *process* — a
serving tier answering requests, a campaign grinding through cells.
Every line is one JSON object with a fixed schema::

    {"ts": 17.25, "level": "info", "component": "serve.app",
     "msg": "request", "timebase": "wall",
     "request_id": "9f2c4ab0d1e88c3a",
     "fields": {"endpoint": "/v1/solve", "status": 200, ...}}

Design rules, in the same spirit as the trace export:

* **exact round-trip** — :func:`record_to_line` and
  :func:`record_from_line` invert each other byte-for-byte (sorted
  keys, shortest-repr floats), so logs are machine-checkable: CI parses
  every emitted line back through the schema;
* **sim-or-wall timestamps** — the manager's clock is pluggable like
  :class:`~repro.obs.spans.SpanRecorder`'s, and ``timebase`` records
  which convention a stream used;
* **cheap when silent** — a suppressed level costs one dict lookup and
  one comparison, so instrumentation can stay on hot paths;
* **request correlation** — a :mod:`contextvars` request id, bound by
  the serving tier per HTTP request, is stamped onto every record
  emitted underneath it (coalesced solves, batch drains, errors).

Sinks are deliberately dumb ``emit(line)`` objects: stderr, a rotating
file, or an in-memory ring for tests and the ``repro top`` snapshot.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import sys
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Severity order, least to most severe.
LOG_LEVELS = ("debug", "info", "warning", "error")

_LEVEL_RANK = {name: i for i, name in enumerate(LOG_LEVELS)}

#: The HTTP header carrying a request id in and out of the serving tier.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Inbound request ids must match this (else a fresh id is minted) so a
#: hostile client cannot inject log-breaking bytes into every line.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Rotating-file defaults: 4 MiB per file, 3 rotated backups.
DEFAULT_MAX_BYTES = 4 << 20
DEFAULT_BACKUPS = 3


class LogSchemaError(ValueError):
    """A line that does not parse as a schema-conformant log record."""


# ----------------------------------------------------------------------
# request-id context
# ----------------------------------------------------------------------
_request_id_var: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


def valid_request_id(raw: str | None) -> str | None:
    """``raw`` if it is a safe inbound request id, else ``None``."""
    if raw is not None and _REQUEST_ID_RE.match(raw):
        return raw
    return None


def current_request_id() -> str | None:
    """The request id bound to the current (task/thread) context."""
    return _request_id_var.get()


@contextmanager
def bound_request_id(request_id: str | None):
    """Bind a request id for the duration of the block; records emitted
    inside (same asyncio task / thread) carry it automatically."""
    token = _request_id_var.set(request_id)
    try:
        yield request_id
    finally:
        _request_id_var.reset(token)


# ----------------------------------------------------------------------
# the record and its wire format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogRecord:
    """One structured log line.

    ``fields`` is kept as a sorted tuple of pairs so records are
    hashable and serialize deterministically regardless of the keyword
    order at the call site.
    """

    ts: float
    level: str
    component: str
    msg: str
    timebase: str = "wall"
    request_id: str | None = None
    fields: tuple[tuple[str, object], ...] = ()

    def field_dict(self) -> dict:
        return dict(self.fields)


def record_to_line(record: LogRecord) -> str:
    """Serialize one record as its canonical JSON line (no newline)."""
    doc: dict = {
        "ts": record.ts,
        "level": record.level,
        "component": record.component,
        "msg": record.msg,
        "timebase": record.timebase,
        "fields": record.field_dict(),
    }
    if record.request_id is not None:
        doc["request_id"] = record.request_id
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_from_line(line: str) -> LogRecord:
    """Invert :func:`record_to_line` exactly; raises
    :class:`LogSchemaError` on anything that is not a conformant record."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogSchemaError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise LogSchemaError("log line is not a JSON object")
    required = {"ts", "level", "component", "msg", "timebase", "fields"}
    missing = required - set(doc)
    if missing:
        raise LogSchemaError(f"missing keys: {', '.join(sorted(missing))}")
    unknown = set(doc) - required - {"request_id"}
    if unknown:
        raise LogSchemaError(f"unknown keys: {', '.join(sorted(unknown))}")
    if not isinstance(doc["ts"], (int, float)) or isinstance(doc["ts"], bool):
        raise LogSchemaError("'ts' must be a number")
    if doc["level"] not in LOG_LEVELS:
        raise LogSchemaError(f"unknown level {doc['level']!r}")
    for key in ("component", "msg", "timebase"):
        if not isinstance(doc[key], str):
            raise LogSchemaError(f"{key!r} must be a string")
    if not isinstance(doc["fields"], dict):
        raise LogSchemaError("'fields' must be an object")
    request_id = doc.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise LogSchemaError("'request_id' must be a string")
    return LogRecord(
        ts=doc["ts"],
        level=doc["level"],
        component=doc["component"],
        msg=doc["msg"],
        timebase=doc["timebase"],
        request_id=request_id,
        fields=tuple(sorted(doc["fields"].items())),
    )


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class StderrSink:
    """Writes each line to the *current* ``sys.stderr`` (not a frozen
    handle, so pytest's capture and redirections behave)."""

    def emit(self, line: str) -> None:
        print(line, file=sys.stderr)


class MemorySink:
    """Bounded in-memory ring of lines; tests and in-process dashboards."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._lines: deque[str] = deque(maxlen=capacity)

    def emit(self, line: str) -> None:
        self._lines.append(line)

    def lines(self) -> list[str]:
        return list(self._lines)

    def records(self) -> list[LogRecord]:
        return [record_from_line(line) for line in self._lines]

    def clear(self) -> None:
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)


class RotatingFileSink:
    """Appends lines to a file, rotating at ``max_bytes``.

    Rotation renames ``app.log`` → ``app.log.1`` → … → ``app.log.N``
    (oldest dropped), the classic size-based scheme: bounded disk under
    sustained load, and the live file is always the newest lines.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = DEFAULT_BACKUPS,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._size = self.path.stat().st_size if self.path.exists() else 0

    def _rotate(self) -> None:
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
            oldest.unlink(missing_ok=True)
            for i in range(self.backups - 1, 0, -1):
                src = self.path.with_name(f"{self.path.name}.{i}")
                if src.exists():
                    os.replace(src, self.path.with_name(f"{self.path.name}.{i + 1}"))
            if self.path.exists():
                os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._size = 0

    def emit(self, line: str) -> None:
        data = line + "\n"
        with self._lock:
            if self._size + len(data) > self.max_bytes and self._size > 0:
                self._rotate()
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(data)
            self._size += len(data)


# ----------------------------------------------------------------------
# manager + logger
# ----------------------------------------------------------------------
@dataclass
class LogManager:
    """Shared logging state: threshold, sinks, clock.

    One process normally has one manager (the module-level root); tests
    build private ones.  ``clock=None`` means wall time
    (``time.time()``); solver-side code can plug the simulated clock and
    set ``timebase="sim"``, mirroring the span recorder.
    """

    level: str = "warning"
    sinks: list = field(default_factory=lambda: [StderrSink()])
    clock: object = None
    timebase: str = "wall"

    def __post_init__(self) -> None:
        if self.level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {self.level!r}")

    def enabled_for(self, level: str) -> bool:
        return _LEVEL_RANK[level] >= _LEVEL_RANK[self.level]

    def now(self) -> float:
        return self.clock() if self.clock is not None else time.time()

    def emit(self, record: LogRecord) -> None:
        line = record_to_line(record)
        for sink in self.sinks:
            sink.emit(line)


class StructuredLogger:
    """A component-bound façade over one :class:`LogManager`."""

    def __init__(self, component: str, manager: LogManager | None = None) -> None:
        self.component = component
        self._manager = manager

    @property
    def manager(self) -> LogManager:
        return self._manager if self._manager is not None else _root_manager()

    def enabled_for(self, level: str) -> bool:
        return self.manager.enabled_for(level)

    def log(self, level: str, msg: str, **fields: object) -> LogRecord | None:
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {level!r}")
        manager = self.manager
        if not manager.enabled_for(level):
            return None
        record = LogRecord(
            ts=manager.now(),
            level=level,
            component=self.component,
            msg=msg,
            timebase=manager.timebase,
            request_id=current_request_id(),
            fields=tuple(sorted(fields.items())),
        )
        manager.emit(record)
        return record

    def debug(self, msg: str, **fields: object):
        return self.log("debug", msg, **fields)

    def info(self, msg: str, **fields: object):
        return self.log("info", msg, **fields)

    def warning(self, msg: str, **fields: object):
        return self.log("warning", msg, **fields)

    def error(self, msg: str, **fields: object):
        return self.log("error", msg, **fields)


# -- the process-wide root ---------------------------------------------
_ROOT = LogManager()


def _root_manager() -> LogManager:
    return _ROOT


def root_manager() -> LogManager:
    """The process-wide root manager.

    Exposed so process boundaries can replicate the configuration: the
    campaign pool initializer reads the parent's threshold here and
    re-applies it inside each worker, swapping the sinks for the
    pipe-forwarding channel (worker records then surface through the
    parent's own stderr/file sinks instead of vanishing).
    """
    return _ROOT


def get_logger(component: str) -> StructuredLogger:
    """A logger bound to the process-wide root manager (late-bound, so
    :func:`configure_logging` affects loggers created before it ran)."""
    return StructuredLogger(component)


def configure_logging(
    *,
    level: str | None = None,
    stderr: bool = True,
    file: str | Path | None = None,
    max_bytes: int = DEFAULT_MAX_BYTES,
    backups: int = DEFAULT_BACKUPS,
    memory: MemorySink | None = None,
    clock=None,
    timebase: str | None = None,
) -> LogManager:
    """(Re)configure the root manager; returns it.

    ``level=None`` keeps the current threshold.  Sinks are rebuilt from
    the arguments: stderr (on by default), an optional rotating file and
    an optional caller-owned memory ring.
    """
    if level is not None:
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {level!r}")
        _ROOT.level = level
    sinks: list = []
    if stderr:
        sinks.append(StderrSink())
    if file is not None:
        sinks.append(RotatingFileSink(file, max_bytes=max_bytes, backups=backups))
    if memory is not None:
        sinks.append(memory)
    _ROOT.sinks = sinks
    _ROOT.clock = clock
    if timebase is not None:
        _ROOT.timebase = timebase
    return _ROOT


def reset_logging() -> LogManager:
    """Restore the root manager to its defaults (tests)."""
    defaults = LogManager()
    _ROOT.level = defaults.level
    _ROOT.sinks = defaults.sinks
    _ROOT.clock = None
    _ROOT.timebase = defaults.timebase
    return _ROOT
