"""Shared plain-terminal rendering helpers.

The live fleet dashboard (``repro campaign --watch``) and the progress
reporter render the same way: a plain-text frame with **no escape codes
inside it**, optionally preceded by one clear-and-home sequence when
repainting in place.  Keeping the frame itself escape-free is what
makes ``--once`` snapshots CI-greppable artifacts — the exact frame a
human watches is the exact text a pipeline asserts on.
"""

from __future__ import annotations

import threading
from typing import Callable, TextIO

#: Clear the screen and home the cursor — the only ANSI the dashboard
#: ever emits, and only in live (non ``--once``) mode.
CLEAR = "\x1b[2J\x1b[H"


def repaint(frame: Callable[[], str], interval_s: float,
            stop: threading.Event, stream: TextIO) -> None:
    """The live dashboard loop: print ``CLEAR + frame()`` every
    ``interval_s`` seconds until ``stop`` is set."""
    while not stop.is_set():
        print(CLEAR + frame(), file=stream, flush=True)
        stop.wait(interval_s)


def hms(seconds: float) -> str:
    """``h:mm:ss`` (or ``m:ss`` under an hour) from a second count."""
    seconds = max(0, int(round(seconds)))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}" if h else f"{m}:{s:02d}"


def fmt_bytes(n: int | float | None) -> str:
    """Human-readable byte count (``512B``, ``3.2MB``, …)."""
    if not n or n <= 0:
        return "-"
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TB"


def fmt_age(seconds: float | None) -> str:
    """A compact age (``3.2s``, ``41s``, ``2:05``); ``-`` for None."""
    if seconds is None:
        return "-"
    seconds = max(0.0, seconds)
    if seconds < 10.0:
        return f"{seconds:.1f}s"
    if seconds < 60.0:
        return f"{int(round(seconds))}s"
    return hms(seconds)
