"""Fleet telemetry: the worker → parent side-band channel.

The campaign runner's worker pool is instrumented the way the serving
tier is (DESIGN.md §5i), but across process boundaries: every pool
worker is initialized with the parent's log configuration and the
write end of one non-blocking pipe, over which it forwards two kinds of
message:

* **structured log records** — worker-side :mod:`repro.obs.logging`
  lines, stamped with ``<run_id>.<cell_id>`` request correlation ids
  and re-emitted through the parent's own handlers (stderr, rotating
  file), the stdlib ``QueueHandler``/``QueueListener`` pattern over the
  pipe;
* **cell lifecycle events** — started / finished / failed, with attempt
  counts; a finished or failed event also carries the worker's peak RSS.
  With the parent's own queued and cached events they are the schema'd
  JSONL stream behind ``repro campaign --json-progress``.

A cell's events are the fleet's only signal: a worker sends nothing
between them.  A serial run sends the same events through the same
:class:`WorkerChannel`, handed straight to the monitor.

Each pooled message is one pickled frame of at most ``PIPE_BUF`` bytes,
written with one ``write``: the kernel makes such a write atomic, so
concurrent writers need no lock, and a worker killed mid-write leaves
neither a torn frame nor a held lock behind.  A frame that would not
fit, or that meets a full pipe, is dropped whole and counted: the
worker's next lifecycle event that gets through carries its running
count into the manifest's ``dropped_frames`` counter.

The parent-side :class:`FleetMonitor` folds both straight into the
:class:`~repro.campaign.manifest.RunManifest`'s own rows, one per cell
(queue wait, compute, wasted seconds) and one per worker (cells done,
busy seconds, peak RSS): the ``--watch`` dashboard renders a live
manifest, and the runner persists the one it takes at campaign end.

**The channel is side-band only.**  Cell correlation ids are
*deterministic* — a prefix of the cell's content hash — so stamping
them into stored traced telemetry preserves the serial↔parallel and
fresh↔cached bit-identity contracts; the random campaign run id only
ever reaches log records and the manifest, never a stored payload.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import threading
import time
from copy import copy
from select import PIPE_BUF

from repro.campaign.manifest import ManifestCell, ManifestWorker, RunManifest
from repro.campaign.store import cell_key
from repro.obs.logging import LOGGER_NAME, handle_line, json_handler, new_request_id

#: The cell lifecycle event kinds, in the order a cell meets them.
CELL_EVENTS = ("queued", "started", "finished", "failed", "cached")

_EVENT_REQUIRED = ("ts", "run_id", "event", "cell", "cell_id", "worker", "attempt")
_EVENT_OPTIONAL = ("elapsed_s", "error")

class ProgressEventError(ValueError):
    """A line that does not parse as a cell lifecycle event."""


def cell_correlation_id(cell) -> str:
    """Deterministic per-cell correlation id: a 16-hex prefix of the
    cell's content hash, so re-running the cell (serial, parallel, or
    from cache) always yields the same id and stored telemetry stays
    bit-identical."""
    return cell_key(cell)[:16]


# ----------------------------------------------------------------------
# the cell-event wire format (--json-progress)
# ----------------------------------------------------------------------
def cell_event(
    run_id: str,
    event: str,
    cell: str,
    cell_id: str,
    worker: int,
    attempt: int,
    *,
    ts: float | None = None,
    elapsed_s: float | None = None,
    error: str | None = None,
) -> dict:
    """One canonical cell lifecycle event document."""
    doc: dict = {
        "ts": time.time() if ts is None else ts,
        "run_id": run_id,
        "event": event,
        "cell": cell,
        "cell_id": cell_id,
        "worker": worker,
        "attempt": attempt,
    }
    if elapsed_s is not None:
        doc["elapsed_s"] = elapsed_s
    if error is not None:
        doc["error"] = error
    return doc


def _check_event(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ProgressEventError("event is not a JSON object")
    missing = set(_EVENT_REQUIRED) - set(doc)
    if missing:
        raise ProgressEventError(f"missing keys: {', '.join(sorted(missing))}")
    unknown = set(doc) - set(_EVENT_REQUIRED) - set(_EVENT_OPTIONAL)
    if unknown:
        raise ProgressEventError(f"unknown keys: {', '.join(sorted(unknown))}")
    if not isinstance(doc["ts"], (int, float)) or isinstance(doc["ts"], bool):
        raise ProgressEventError("'ts' must be a number")
    if doc["event"] not in CELL_EVENTS:
        raise ProgressEventError(f"unknown event {doc['event']!r}")
    for key in ("run_id", "cell", "cell_id"):
        if not isinstance(doc[key], str):
            raise ProgressEventError(f"{key!r} must be a string")
    for key in ("worker", "attempt"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise ProgressEventError(f"{key!r} must be an integer")
    if "elapsed_s" in doc and (
        not isinstance(doc["elapsed_s"], (int, float))
        or isinstance(doc["elapsed_s"], bool)
    ):
        raise ProgressEventError("'elapsed_s' must be a number")
    if "error" in doc and not isinstance(doc["error"], str):
        raise ProgressEventError("'error' must be a string")
    return doc


def cell_event_to_line(doc: dict) -> str:
    """Serialize one event as its canonical JSON line (no newline)."""
    return json.dumps(_check_event(doc), sort_keys=True, separators=(",", ":"))


def cell_event_from_line(line: str) -> dict:
    """Invert :func:`cell_event_to_line` exactly; raises
    :class:`ProgressEventError` on anything non-conformant."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProgressEventError(f"not JSON: {exc}") from None
    return _check_event(doc)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 where unsupported)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


class WorkerChannel:
    """A worker's handle on the fleet channel: it builds each lifecycle
    event once and sends it through one of two transports.

    In a pool worker (``conn``, the telemetry pipe's write end) each
    message is one pickled frame, and every send is best-effort: the
    channel is side-band, so a full pipe, a closed reader or an oversized
    frame drops the frame, counted, and never fails a cell.  The channel
    is then also the queue the worker's stdlib ``QueueHandler`` puts log
    records to (:meth:`put_nowait`).  In a serial run (``monitor``) each
    message goes straight to :meth:`FleetMonitor.handle`, unpickled.
    """

    def __init__(
        self, run_id: str, *, conn=None, monitor: "FleetMonitor | None" = None
    ) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.conn = conn
        #: Frames dropped so far, oversized or meeting a full pipe or a
        #: closed reader; every lifecycle event sent carries it.  A pool
        #: worker runs its cells and logs on one thread, so no lock.
        self.dropped_frames = 0
        self._send = self._write if monitor is None else monitor.handle

    def _write(self, message) -> None:
        frame = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        # a write past PIPE_BUF could interleave: drop it whole.  4 is
        # send_bytes' length header
        if len(frame) + 4 <= PIPE_BUF:
            try:
                self.conn.send_bytes(frame)
                return
            except OSError:
                pass  # full pipe or closed reader: never fail a cell
        self.dropped_frames += 1

    def _event(self, doc: dict) -> None:
        doc["dropped_frames"] = self.dropped_frames
        self._send(("event", doc))

    def emit_log(self, line: str) -> None:
        self._send(("log", line))

    def put_nowait(self, record: logging.LogRecord) -> None:
        """Forward a record ``QueueHandler`` prepared: its ``msg`` is
        the formatted line."""
        self.emit_log(record.msg)

    def cell_started(self, label: str, cell_id: str, attempt: int) -> None:
        self._event(
            cell_event(self.run_id, "started", label, cell_id, self.pid, attempt)
        )

    def cell_finished(
        self,
        label: str,
        cell_id: str,
        attempt: int,
        elapsed_s: float,
        error: str | None = None,
    ) -> None:
        doc = cell_event(
            self.run_id,
            "failed" if error is not None else "finished",
            label,
            cell_id,
            self.pid,
            attempt,
            elapsed_s=elapsed_s,
            error=error,
        )
        doc["rss_bytes"] = _rss_bytes()
        self._event(doc)


#: The worker process's channel, installed by :func:`init_worker`.
_CHANNEL: WorkerChannel | None = None


def worker_channel() -> WorkerChannel | None:
    """This process's channel (``None`` outside an initialized worker)."""
    return _CHANNEL


def init_worker(conn, run_id: str, log_level: int) -> None:
    """Pool initializer: wire this worker into the telemetry channel.

    ``conn`` is the write end of the run's telemetry pipe, already
    non-blocking.  Re-applies the parent's log threshold and replaces
    the handlers a forked worker inherits with one ``QueueHandler`` on
    the channel: worker records surface through the parent's handlers
    instead of racing it for its stderr and file.
    """
    global _CHANNEL
    _CHANNEL = WorkerChannel(run_id, conn=conn)
    from logging.handlers import QueueHandler  # loaded by pool workers only

    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(log_level)
    for inherited in list(logger.handlers):
        logger.removeHandler(inherited)
    logger.addHandler(json_handler(QueueHandler(_CHANNEL)))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Live:
    """A worker's state that no manifest field holds: the cell it runs
    now and since when, the config group it is in and when it started
    that group, and its latest count of dropped frames."""

    __slots__ = ("cell", "since", "group", "group_since", "dropped_frames")

    def __init__(self) -> None:
        self.cell: str | None = None
        self.since: float | None = None
        self.group: str | None = None
        self.group_since = 0.0
        self.dropped_frames = 0


class FleetMonitor:
    """Thread-safe parent-side fold of the fleet telemetry stream.

    Its state is the manifest's own rows: one :class:`ManifestCell` per
    cell and one :class:`ManifestWorker` per worker, updated in place as
    events arrive, and copied by :meth:`manifest`.  Whether a cell has
    settled, whether its ran seconds have fed the ETA, and each worker's
    :class:`_Live` state are kept beside them and never persisted.

    Fed from three directions — the pipe drainer thread (worker
    events, forwarded logs), the runner's main thread (queued cells,
    authoritative cell outcomes, and a serial run's worker events) and
    the ``--watch`` repaint thread (live manifests) — so every method
    takes the one lock.

    ``event_sink`` (when given) receives each cell lifecycle event
    document exactly once, in emission order; it backs
    ``--json-progress``.  Terminal events (finished / failed / cached)
    are emitted from the parent's authoritative outcome so each cell
    gets exactly one, even across retries, crashes and worker/parent
    races; ``started`` events are forwarded from workers and may trail
    their cell's terminal line for very fast parallel cells (sort by
    ``ts`` when order matters).
    """

    def __init__(
        self,
        run_id: str | None = None,
        *,
        workers: int = 1,
        event_sink=None,
        clock=time.time,
    ) -> None:
        self.run_id = run_id or new_request_id()
        self.workers = max(1, workers)
        self.event_sink = event_sink
        self.clock = clock
        self.name = ""
        self.total = 0
        self.started_at = clock()
        self.finished_at: float | None = None
        self.wall_s = 0.0
        self.log_lines = 0
        self._cells: dict[str, ManifestCell] = {}
        self._workers: dict[int, ManifestWorker] = {}
        self._live: dict[int, _Live] = {}
        # labels of the cells settled (cell_done), and of those whose ran
        # seconds fed the ETA
        self._settled: set[str] = set()
        self._counted: set[str] = set()
        # ran cells' compute seconds, summed: the ETA's evidence
        self._ran_s = 0.0
        self._lock = threading.Lock()

    @property
    def done(self) -> int:
        """Cells settled so far (:meth:`cell_done`)."""
        return len(self._settled)

    # -- ingestion -----------------------------------------------------
    def begin(self, *, total: int, name: str, workers: int | None = None) -> None:
        """Open the run: record the grid size and reset the wall clock."""
        with self._lock:
            self.total = total
            self.name = name
            if workers is not None:
                self.workers = max(1, workers)
            self.started_at = self.clock()

    def handle(self, message) -> None:
        """Dispatch one channel message (the drainer's entry point)."""
        kind, payload = message
        if kind == "log":
            self.on_log(payload)
        elif kind == "event":
            self.on_event(payload)

    def on_log(self, line: str) -> None:
        """Re-emit one forwarded worker log line through the parent's
        handlers (level filtering already happened worker-side)."""
        with self._lock:
            self.log_lines += 1
        handle_line(line)

    def _emit_event(self, doc: dict) -> None:
        # caller holds the lock: sink writes are serialized
        if self.event_sink is not None:
            self.event_sink(doc)

    def _row(self, label: str, cell_id: str) -> ManifestCell:
        # caller holds the lock
        row = self._cells.get(label)
        if row is None:
            row = self._cells[label] = ManifestCell(
                label, cell_id, label.rsplit("/", 1)[-1], "queued"
            )
        return row

    def cell_queued(self, cell, attempt: int) -> None:
        """Parent-side: the cell was submitted (or is about to run)."""
        now = self.clock()
        label = cell.label
        with self._lock:
            row = self._row(label, cell_correlation_id(cell))
            if label not in self._settled:
                row.status = "queued"
                row.queued_ts = now
                row.attempts = max(row.attempts, attempt)
            self._emit_event(
                cell_event(
                    self.run_id, "queued", label, row.cell_id,
                    os.getpid(), attempt, ts=now,
                )
            )

    def on_event(self, doc: dict) -> None:
        """One worker-side lifecycle event (started / finished / failed)."""
        label, pid, kind, ts = doc["cell"], doc["worker"], doc["event"], doc["ts"]
        # neither is part of the event schema
        dropped = doc.pop("dropped_frames", 0)
        rss = doc.pop("rss_bytes", 0)
        with self._lock:
            row = self._row(label, doc["cell_id"])
            w = self._workers.get(pid)
            if w is None:
                w = self._workers[pid] = ManifestWorker(pid)
                self._live[pid] = _Live()
            live = self._live[pid]
            live.dropped_frames = max(live.dropped_frames, dropped)
            w.max_rss_bytes = max(w.max_rss_bytes, rss)
            settled = label in self._settled
            if kind == "started":
                group = label.rsplit("/", 1)[0]
                if live.group != group or live.group_since <= (row.queued_ts or 0.0):
                    # the worker starts a group: its cells were queued
                    # before it, and their queue wait ends now
                    live.group, live.group_since = group, ts
                if not settled:
                    row.status = "running"
                    row.started_ts = ts
                    row.worker = pid
                    # an attempt its worker retried in place was never
                    # queued: it waited for nothing
                    if row.queued_ts is not None and doc["attempt"] <= row.attempts:
                        row.queue_wait_s += max(0.0, live.group_since - row.queued_ts)
                    row.attempts = max(row.attempts, doc["attempt"])
                live.cell, live.since = label, ts
                w.last_cell = label
                self._emit_event(doc)
            elif kind in ("finished", "failed"):
                elapsed = float(doc.get("elapsed_s") or 0.0)
                live.cell = live.since = None
                w.busy_s += elapsed
                if kind == "finished":
                    w.cells_done += 1
                    self._count_ran(label, elapsed)
                    if not settled:
                        row.status = "ran"
                        row.worker = pid
                        row.compute_s = elapsed
                        row.finished_ts = ts
                else:
                    w.failed_attempts += 1
                    if not settled:
                        row.status = "failed"
                        row.worker = pid
                        row.wasted_s += elapsed
                        row.finished_ts = ts
                        row.error = doc.get("error")
                # terminal json-progress lines come from cell_done (the
                # parent's authoritative outcome), not from here: the
                # worker's event and the future's completion race, and
                # the sink must see exactly one terminal line per cell

    def _count_ran(self, label: str, elapsed: float) -> None:
        # caller holds the lock: a cell's ran seconds feed the ETA once
        if label not in self._counted:
            self._counted.add(label)
            self._ran_s += elapsed

    def cell_done(self, result) -> None:
        """Parent-side authoritative outcome for one cell.

        Reconciles whatever the worker stream reported (possibly
        nothing, for cache hits, crashes and parent-level failures) and
        emits the cell's single terminal event.
        """
        now = self.clock()
        cell = result.cell
        label = cell.label
        with self._lock:
            if label in self._settled:
                return
            self._settled.add(label)
            row = self._row(label, cell_correlation_id(cell))
            row.status = result.status
            row.attempts = max(row.attempts, result.attempts)
            if result.status != "failed":
                row.error = None  # an earlier attempt's error is history
            elif result.error:
                row.error = result.error
            if row.finished_ts is None:
                row.finished_ts = now
            if result.status == "cached":
                row.compute_s = result.elapsed_s  # banked original cost
            elif result.status == "ran":
                row.compute_s = result.elapsed_s
                row.wasted_s = max(row.wasted_s, getattr(result, "wasted_s", 0.0))
                self._count_ran(label, result.elapsed_s)
            else:  # failed: elapsed_s is the total wasted compute
                row.wasted_s = max(row.wasted_s, result.elapsed_s)
            self._emit_event(
                cell_event(
                    self.run_id,
                    {"ran": "finished", "cached": "cached"}.get(
                        result.status, "failed"
                    ),
                    label,
                    row.cell_id,
                    row.worker if row.worker is not None else os.getpid(),
                    row.attempts,
                    ts=now,
                    elapsed_s=result.elapsed_s,
                    error=result.error,
                )
            )

    def finalize(self, wall_s: float | None = None) -> None:
        """Close the run: stamp the end time."""
        with self._lock:
            self.finished_at = self.clock()
            self.wall_s = (
                wall_s if wall_s is not None else self.finished_at - self.started_at
            )

    # -- derived views -------------------------------------------------
    def eta_s(self) -> float | None:
        """Remaining wall-clock estimate: the unsettled cells times the
        mean ran-cell cost, over the workers (``None`` before any cell
        has run).  O(1): the counts are kept as cells settle."""
        with self._lock:
            remaining = max(0, self.total - len(self._settled))
            if remaining == 0 and self.total > 0:
                return 0.0
            if not self._counted:
                return None
            return remaining * (self._ran_s / len(self._counted)) / self.workers

    def busy(self) -> dict[int, tuple[str, float]]:
        """Each busy worker's current cell and the time it started it."""
        with self._lock:
            return {
                pid: (live.cell, live.since)
                for pid, live in self._live.items()
                if live.cell is not None
            }

    def manifest(self, *, store_overwrites: int = 0) -> RunManifest:
        """The fleet state as a :class:`RunManifest`: a copy of the rows
        and the run totals computed from them.  Before :meth:`finalize`
        the manifest is live: ``finished_at`` is the moment it was taken
        and cells may still be queued or running."""
        with self._lock:
            if self.finished_at is None:
                finished = self.clock()
                wall = finished - self.started_at
            else:
                finished, wall = self.finished_at, self.wall_s
            cells = tuple(copy(row) for row in self._cells.values())
            workers = tuple(copy(self._workers[pid]) for pid in sorted(self._workers))
            by_status = {"ran": 0, "cached": 0, "failed": 0}
            retries = queue_wait = compute = wasted = banked = 0.0
            for row in cells:
                if row.status in by_status and row.label in self._settled:
                    by_status[row.status] += 1
                retries += row.attempts - 1
                queue_wait += row.queue_wait_s
                wasted += row.wasted_s
                if row.status == "cached":
                    banked += row.compute_s
                else:
                    compute += row.compute_s
            counters = {
                "cells": self.total,
                **by_status,
                "retries": int(retries),
                "queue_wait_s": queue_wait,
                "compute_s": compute,
                "wasted_s": wasted,
                "banked_s": banked,
                "log_lines": self.log_lines,
                "dropped_frames": sum(
                    live.dropped_frames for live in self._live.values()
                ),
                "store_overwrites": store_overwrites,
            }
            return RunManifest(
                run_id=self.run_id,
                name=self.name,
                workers=self.workers,
                started_at=self.started_at,
                finished_at=finished,
                wall_s=wall,
                counters=counters,
                cells=cells,
                worker_rows=workers,
            )



class ChannelDrainer(threading.Thread):
    """Parent-side daemon thread pumping the pipe into the monitor.

    Runs until :meth:`stop` *and* the pipe has gone quiet, so frames a
    worker wrote before exiting are never dropped; closes the read end
    when it returns.
    """

    def __init__(self, conn, monitor: FleetMonitor) -> None:
        super().__init__(name="repro-fleet-drain", daemon=True)
        self.conn = conn
        self.monitor = monitor
        self._stop_event = threading.Event()

    def run(self) -> None:
        with self.conn:
            while True:
                try:
                    if not self.conn.poll(0.2):
                        if self._stop_event.is_set():
                            return
                        continue
                    frame = self.conn.recv_bytes()
                except (EOFError, OSError):
                    return
                try:
                    self.monitor.handle(pickle.loads(frame))
                except Exception:
                    continue  # a bad message must not kill the drain loop

    def stop(self, timeout_s: float = 10.0) -> None:
        """Signal shutdown and wait for the backlog to drain."""
        self._stop_event.set()
        self.join(timeout=timeout_s)
