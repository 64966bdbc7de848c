"""Structured JSONL logging on stdlib :mod:`logging`.

This is the operational half of ``repro.obs``: where the telemetry
bundle (:mod:`repro.obs.telemetry`) captures one *run* for later
analysis, the structured log is the live narration of a *process* — a
serving tier answering requests, a campaign grinding through cells.
Every line is one JSON object with a fixed schema::

    {"ts": 17.25, "level": "info", "component": "serve.app",
     "msg": "request", "timebase": "wall",
     "request_id": "9f2c4ab0d1e88c3a",
     "fields": {"endpoint": "/v1/solve", "status": 200, ...}}

Records travel through stdlib ``logging`` under one ``repro`` logger
(``repro.<component>`` per component) that does not propagate to the
root logger, so another library's records never become repro lines and
repro lines never reach another library's handlers.  What is ours:

* **one formatter** — :class:`JsonFormatter` writes the canonical line;
  :func:`record_to_line` and :func:`record_from_line` invert each other
  byte-for-byte (sorted keys, shortest-repr floats), so logs are
  machine-checkable: CI parses every emitted line back through the
  schema.  Live records are wall-clocked; ``timebase`` stays in the
  schema so a reader can tell;
* **one filter** — :func:`stamp_request_id` stamps the :mod:`contextvars`
  request id, bound by the serving tier per HTTP request and by a pool
  worker per cell, onto each record as it is made, unless the record
  already carries one (a forwarded worker record keeps its own);
* **keyword fields** — :func:`get_logger` returns an adapter whose
  ``info("msg", key=value, ...)`` puts the keywords under ``fields``.
"""

from __future__ import annotations

import contextvars
import json
import logging
import re
import sys
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Severity order, least to most severe.
LOG_LEVELS = ("debug", "info", "warning", "error")

_LEVELNO = {name: getattr(logging, name.upper()) for name in LOG_LEVELS}

#: The stdlib logger every repro record goes through; components are
#: its children (``repro.serve.app``).
LOGGER_NAME = "repro"

#: The HTTP header carrying a request id in and out of the serving tier.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Inbound request ids must match this (else a fresh id is minted) so a
#: hostile client cannot inject log-breaking bytes into every line.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: ``--log-file`` rotation: 4 MiB per file, 3 rotated backups.
MAX_BYTES = 4 << 20
BACKUPS = 3


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
    """One structured log line, as :func:`record_from_line` reads it.

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


def _dumps(ts, level, component, msg, timebase, request_id, fields) -> str:
    doc: dict = {
        "ts": ts,
        "level": level,
        "component": component,
        "msg": msg,
        "timebase": timebase,
        "fields": fields,
    }
    if request_id is not None:
        doc["request_id"] = request_id
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_to_line(record: LogRecord) -> str:
    """Serialize one record as its canonical JSON line (no newline)."""
    return _dumps(
        record.ts, record.level, record.component, record.msg,
        record.timebase, record.request_id, record.field_dict(),
    )


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
# the stdlib side: formatter, filter, handlers
# ----------------------------------------------------------------------
class JsonFormatter(logging.Formatter):
    """Formats a ``repro.<component>`` record as its canonical line."""

    def format(self, record: logging.LogRecord) -> str:
        return _dumps(
            record.created,
            record.levelname.lower(),
            record.name.removeprefix(f"{LOGGER_NAME}."),
            record.getMessage(),
            "wall",
            getattr(record, "request_id", None),
            getattr(record, "fields", {}),
        )


def stamp_request_id(record: logging.LogRecord) -> bool:
    """Handler filter: stamp the bound request id onto a record that
    carries none.  Handlers run in the emitting task or thread, so this
    is the context the record was made in."""
    if not hasattr(record, "request_id"):
        record.request_id = _request_id_var.get()
    return True


def json_handler(handler: logging.Handler) -> logging.Handler:
    """``handler`` with the repro formatter and request-id filter."""
    handler.setFormatter(JsonFormatter())
    handler.addFilter(stamp_request_id)
    return handler


class _StderrHandler(logging.Handler):
    """Writes to the *current* ``sys.stderr`` (not a handle frozen at
    construction), so redirections and pytest's capture see the lines."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def _levelno(level: str) -> int:
    try:
        return _LEVELNO[level]
    except KeyError:
        raise ValueError(f"unknown log level {level!r}") from None


class _FieldsAdapter(logging.LoggerAdapter):
    """``log(level, msg, **fields)``: keywords become the record's
    ``fields``; ``level`` is a stdlib number or a :data:`LOG_LEVELS` name."""

    def log(self, level: int | str, msg: str, **fields: object) -> None:
        if isinstance(level, str):
            level = _levelno(level)
        logger = self.logger
        if logger.isEnabledFor(level):
            # built here, not by Logger._log: the line has no source
            # file or line, so its caller lookup would be wasted work
            record = logger.makeRecord(logger.name, level, "", 0, msg, (), None)
            record.fields = fields
            logger.handle(record)


def get_logger(component: str) -> logging.LoggerAdapter:
    """The ``repro.<component>`` logger, taking ``**fields``; it follows
    :func:`configure_logging` whenever that runs."""
    return _FieldsAdapter(logging.getLogger(f"{LOGGER_NAME}.{component}"))


def configure_logging(
    *, level: str | None = None, file: str | Path | None = None
) -> None:
    """Route repro records to stderr and, given ``file``, to that file
    rotated at :data:`MAX_BYTES` into :data:`BACKUPS` backups.
    ``level=None`` keeps the current threshold."""
    logger = logging.getLogger(LOGGER_NAME)
    if level is not None:
        logger.setLevel(_levelno(level))
    for old in list(logger.handlers):
        logger.removeHandler(old)
        old.close()
    logger.addHandler(json_handler(_StderrHandler()))
    if file is not None:
        from logging.handlers import RotatingFileHandler

        Path(file).parent.mkdir(parents=True, exist_ok=True)
        rotating = RotatingFileHandler(
            file, maxBytes=MAX_BYTES, backupCount=BACKUPS, encoding="utf-8"
        )
        logger.addHandler(json_handler(rotating))


def handle_line(line: str) -> None:
    """Re-emit one canonical line, a record a pool worker formatted and
    forwarded, through the repro logger's handlers, as
    ``logging.handlers.QueueListener`` does: the worker already applied
    the level, and the record keeps the request id it was made with.
    Raises :class:`LogSchemaError` on a non-conformant line."""
    parsed = record_from_line(line)
    record = logging.makeLogRecord(
        {
            "name": f"{LOGGER_NAME}.{parsed.component}",
            "levelno": _LEVELNO[parsed.level],
            "levelname": parsed.level.upper(),
            "msg": parsed.msg,
            "created": parsed.ts,
            "request_id": parsed.request_id,
            "fields": parsed.field_dict(),
        }
    )
    for handler in logging.getLogger(LOGGER_NAME).handlers:
        handler.handle(record)


_repro = logging.getLogger(LOGGER_NAME)
_repro.propagate = False
_repro.setLevel(logging.WARNING)
configure_logging()
