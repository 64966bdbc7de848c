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

The parent-side :class:`FleetMonitor` folds both into one thread-safe
state (per-cell queue-wait vs compute split, each worker's current cell
and peak RSS) that the ``--watch`` dashboard renders live and the
:class:`~repro.campaign.manifest.RunManifest` snapshots at campaign
end.

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
from select import PIPE_BUF

from repro.campaign.store import cell_key
from repro.obs.logging import LOGGER_NAME, handle_line, json_handler, new_request_id

#: The cell lifecycle event kinds, in the order a cell meets them.
CELL_EVENTS = ("queued", "started", "finished", "failed", "cached")

_EVENT_REQUIRED = ("ts", "run_id", "event", "cell", "cell_id", "worker", "attempt")
_EVENT_OPTIONAL = ("elapsed_s", "error")

#: Cell statuses that mean the parent has spoken: no further state
#: transitions are accepted for the cell (late worker events only
#: update worker aggregates).
_TERMINAL = ("ran", "cached", "failed")


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
def _new_cell(label: str, cell_id: str) -> dict:
    return {
        "label": label,
        "cell_id": cell_id,
        "scheme": label.rsplit("/", 1)[-1],
        "status": "queued",
        "queued_ts": None,
        "started_ts": None,
        "finished_ts": None,
        "attempts": 0,
        "worker": None,
        "queue_wait_s": 0.0,
        "compute_s": 0.0,
        "wasted_s": 0.0,
        "error": None,
        "counted": False,
        "final": False,
    }


def _new_worker(pid: int) -> dict:
    return {
        "worker": pid,
        "cell": None,
        "cell_started_ts": None,
        "max_rss_bytes": 0,
        "done": 0,
        "failed_attempts": 0,
        "busy_s": 0.0,
        "last_cell": None,
        "dropped_frames": 0,
    }


class FleetMonitor:
    """Thread-safe parent-side fold of the fleet telemetry stream.

    Fed from three directions — the pipe drainer thread (worker
    events, forwarded logs), the runner's main thread (queued cells,
    authoritative cell outcomes, and a serial run's worker events) and
    the ``--watch`` repaint thread (snapshots) — so every method takes
    the one lock.

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
        #: Cells settled so far (:meth:`cell_done`).
        self.done = 0
        self._cells: dict[str, dict] = {}
        self._workers: dict[int, dict] = {}
        # ran cells' compute seconds, summed and counted: the ETA's evidence
        self._ran_s = 0.0
        self._ran_n = 0
        self._lock = threading.Lock()

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

    def cell_queued(self, cell, attempt: int) -> None:
        """Parent-side: the cell was submitted (or is about to run)."""
        now = self.clock()
        label = cell.label
        with self._lock:
            st = self._cells.setdefault(
                label, _new_cell(label, cell_correlation_id(cell))
            )
            if not st["final"]:
                st["status"] = "queued"
                st["queued_ts"] = now
                st["attempts"] = max(st["attempts"], attempt)
            self._emit_event(
                cell_event(
                    self.run_id, "queued", label, st["cell_id"],
                    os.getpid(), attempt, ts=now,
                )
            )

    def on_event(self, doc: dict) -> None:
        """One worker-side lifecycle event (started / finished / failed)."""
        label, pid, kind = doc["cell"], doc["worker"], doc["event"]
        # neither is part of the event schema
        dropped = doc.pop("dropped_frames", 0)
        rss = doc.pop("rss_bytes", 0)
        with self._lock:
            st = self._cells.setdefault(label, _new_cell(label, doc["cell_id"]))
            w = self._workers.setdefault(pid, _new_worker(pid))
            w["dropped_frames"] = max(w["dropped_frames"], dropped)
            w["max_rss_bytes"] = max(w["max_rss_bytes"], rss)
            if kind == "started":
                if not st["final"]:
                    st["status"] = "running"
                    st["started_ts"] = doc["ts"]
                    st["worker"] = pid
                    # an attempt its worker retried in place was never
                    # queued: it waited for nothing
                    if st["queued_ts"] is not None and doc["attempt"] <= st["attempts"]:
                        st["queue_wait_s"] += max(0.0, doc["ts"] - st["queued_ts"])
                    st["attempts"] = max(st["attempts"], doc["attempt"])
                w["cell"] = label
                w["cell_started_ts"] = doc["ts"]
                w["last_cell"] = label
                self._emit_event(doc)
            elif kind in ("finished", "failed"):
                elapsed = float(doc.get("elapsed_s") or 0.0)
                w["cell"] = None
                w["cell_started_ts"] = None
                w["busy_s"] += elapsed
                if kind == "finished":
                    w["done"] += 1
                    if not st["counted"]:
                        self._count_ran(st, elapsed)
                    if not st["final"]:
                        st["status"] = "ran"
                        st["worker"] = pid
                        st["compute_s"] = elapsed
                        st["finished_ts"] = doc["ts"]
                else:
                    w["failed_attempts"] += 1
                    if not st["final"]:
                        st["status"] = "failed"
                        st["worker"] = pid
                        st["wasted_s"] += elapsed
                        st["finished_ts"] = doc["ts"]
                        st["error"] = doc.get("error")
                # terminal json-progress lines come from cell_done (the
                # parent's authoritative outcome), not from here: the
                # worker's event and the future's completion race, and
                # the sink must see exactly one terminal line per cell

    def _count_ran(self, st: dict, elapsed: float) -> None:
        # caller holds the lock
        st["counted"] = True
        self._ran_s += elapsed
        self._ran_n += 1

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
            st = self._cells.setdefault(
                label, _new_cell(label, cell_correlation_id(cell))
            )
            if st["final"]:
                return
            st["final"] = True
            self.done += 1
            st["status"] = result.status
            st["attempts"] = max(st["attempts"], result.attempts)
            if result.error:
                st["error"] = result.error
            if st["finished_ts"] is None:
                st["finished_ts"] = now
            if result.status == "cached":
                st["compute_s"] = result.elapsed_s  # banked original cost
            elif result.status == "ran":
                st["compute_s"] = result.elapsed_s
                st["wasted_s"] = max(st["wasted_s"], getattr(result, "wasted_s", 0.0))
                if not st["counted"]:
                    self._count_ran(st, result.elapsed_s)
            else:  # failed: elapsed_s is the total wasted compute
                st["wasted_s"] = max(st["wasted_s"], result.elapsed_s)
            self._emit_event(
                cell_event(
                    self.run_id,
                    {"ran": "finished", "cached": "cached"}.get(
                        result.status, "failed"
                    ),
                    label,
                    st["cell_id"],
                    st["worker"] if st["worker"] is not None else os.getpid(),
                    max(1, st["attempts"]),
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
            return self._eta()

    def _eta(self) -> float | None:
        # caller holds the lock
        remaining = max(0, self.total - self.done)
        if remaining == 0 and self.total > 0:
            return 0.0
        if not self._ran_n:
            return None
        return remaining * (self._ran_s / self._ran_n) / self.workers

    def _counters(self) -> dict:
        # caller holds the lock
        by_status = {"ran": 0, "cached": 0, "failed": 0}
        retries = queue_wait = compute = wasted = banked = 0.0
        for st in self._cells.values():
            if st["status"] in by_status and st["final"]:
                by_status[st["status"]] += 1
            retries += max(0, st["attempts"] - 1)
            queue_wait += st["queue_wait_s"]
            wasted += st["wasted_s"]
            if st["status"] == "cached":
                banked += st["compute_s"]
            else:
                compute += st["compute_s"]
        return {
            "cells": self.total,
            "ran": by_status["ran"],
            "cached": by_status["cached"],
            "failed": by_status["failed"],
            "retries": int(retries),
            "queue_wait_s": queue_wait,
            "compute_s": compute,
            "wasted_s": wasted,
            "banked_s": banked,
            "log_lines": self.log_lines,
            "dropped_frames": sum(
                w["dropped_frames"] for w in self._workers.values()
            ),
        }

    def snapshot(self) -> dict:
        """One consistent view of the fleet for rendering."""
        now = self.clock()
        with self._lock:
            counters = self._counters()
            done, eta = self.done, self._eta()
            wall = (
                self.wall_s
                if self.finished_at is not None
                else now - self.started_at
            )
            worker_rows = []
            for pid in sorted(self._workers):
                w = self._workers[pid]
                worker_rows.append(
                    {
                        "worker": pid,
                        "state": "busy" if w["cell"] is not None else "idle",
                        "cell": w["cell"],
                        "cell_age_s": (
                            now - w["cell_started_ts"]
                            if w["cell_started_ts"] is not None
                            else None
                        ),
                        "done": w["done"],
                        "failed_attempts": w["failed_attempts"],
                        "rss_bytes": w["max_rss_bytes"],
                    }
                )
            last_error = None
            for st in self._cells.values():
                if st["error"] is not None:
                    last_error = {
                        "cell": st["label"],
                        "error": st["error"],
                        "attempts": st["attempts"],
                    }
        return {
            "run_id": self.run_id,
            "name": self.name,
            "workers": self.workers,
            "total": self.total,
            "done": done,
            "ran": counters["ran"],
            "cached": counters["cached"],
            "failed": counters["failed"],
            "retries": counters["retries"],
            "wall_s": wall,
            "cells_per_sec": done / wall if wall > 0 else 0.0,
            "eta_s": eta,
            "queue_wait_s": counters["queue_wait_s"],
            "compute_s": counters["compute_s"],
            "wasted_s": counters["wasted_s"],
            "banked_s": counters["banked_s"],
            "log_lines": counters["log_lines"],
            "worker_rows": worker_rows,
            "last_error": last_error,
        }

    def manifest(self, *, store_overwrites: int = 0):
        """Snapshot the fleet state as a persistable
        :class:`~repro.campaign.manifest.RunManifest`."""
        from repro.campaign.manifest import (
            ManifestCell,
            ManifestWorker,
            RunManifest,
        )

        with self._lock:
            if self.finished_at is None:
                finished = self.clock()
                wall = finished - self.started_at
            else:
                finished, wall = self.finished_at, self.wall_s
            counters = self._counters()
            counters["store_overwrites"] = store_overwrites
            cells = tuple(
                ManifestCell(
                    label=st["label"],
                    cell_id=st["cell_id"],
                    scheme=st["scheme"],
                    status=st["status"],
                    attempts=max(1, st["attempts"]),
                    worker=st["worker"],
                    queued_ts=st["queued_ts"],
                    started_ts=st["started_ts"],
                    finished_ts=st["finished_ts"],
                    queue_wait_s=st["queue_wait_s"],
                    compute_s=st["compute_s"],
                    wasted_s=st["wasted_s"],
                    error=st["error"],
                )
                for st in self._cells.values()
            )
            workers = tuple(
                ManifestWorker(
                    worker=pid,
                    cells_done=w["done"],
                    failed_attempts=w["failed_attempts"],
                    busy_s=w["busy_s"],
                    max_rss_bytes=w["max_rss_bytes"],
                    last_cell=w["last_cell"],
                )
                for pid in sorted(self._workers)
                for w in (self._workers[pid],)
            )
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
