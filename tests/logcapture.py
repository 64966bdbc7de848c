"""Capturing repro's structured log lines in a test.

:func:`captured_logs` adds a :class:`CaptureHandler` beside the repro
logger's own handlers, so a test sees exactly the lines stderr and
``--log-file`` get, and puts the logger back as it found it.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager

from repro.obs.logging import (
    LOGGER_NAME,
    configure_logging,
    json_handler,
    record_from_line,
)


class CaptureHandler(logging.Handler):
    """Keeps every line the repro formatter writes, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(self.format(record))

    def records(self):
        return [record_from_line(line) for line in self.lines]


@contextmanager
def captured_logs(level: str = "debug"):
    """Capture repro records at ``level`` and above.  On exit the logger
    gets back its threshold and the default handlers, so a
    :func:`configure_logging` call inside the block does not leak."""
    logger = logging.getLogger(LOGGER_NAME)
    saved = logger.level
    handler = json_handler(CaptureHandler())
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        configure_logging()
        logger.setLevel(saved)
