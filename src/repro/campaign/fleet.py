"""Fleet telemetry: the worker → parent side-band channel.

The campaign runner's worker pool is instrumented the way the serving
tier is (DESIGN.md §5i), but across process boundaries: every pool
worker is initialized with the parent's log configuration and the
write end of one non-blocking pipe, over which it forwards

* **structured log records** — worker-side :mod:`repro.obs.logging`
  lines, re-emitted through the parent's own sinks (stderr, rotating
  file), stamped with ``<run_id>.<cell_id>`` request correlation ids;
* **cell lifecycle events** — queued / started / finished / failed /
  cached, with attempt counts, the schema'd JSONL stream behind
  ``repro campaign --json-progress``;
* **heartbeats** — pid, RSS, current cell and its elapsed age, from a
  daemon thread per worker, so a hung or killed worker is visible as a
  widening heartbeat gap.

Each message is one pickled frame of at most ``PIPE_BUF`` bytes, written
with one ``write``: the kernel makes such a write atomic, so concurrent
writers need no lock, and a worker killed mid-write leaves neither a
torn frame nor a held lock behind.  A frame that would not fit, or that
meets a full pipe, is dropped whole.

The parent-side :class:`FleetMonitor` folds all three into one
thread-safe state (per-cell queue-wait vs compute split, per-worker
liveness) that the ``--watch`` dashboard renders live and the
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
import os
import pickle
import threading
import time
from select import PIPE_BUF

from repro.campaign.store import cell_key
from repro.obs.logging import new_request_id, root_manager

#: Default heartbeat cadence, seconds; 0 disables the heartbeat thread.
DEFAULT_HEARTBEAT_S = 1.0

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
    """Worker-side handle on the telemetry pipe's write end.

    Every ``put`` is best-effort: the channel is side-band, so a full
    pipe, a closed reader or an oversized message must never fail a
    cell.
    """

    def __init__(
        self,
        conn,
        run_id: str,
        *,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        self.conn = conn
        self.run_id = run_id
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._cell: tuple[str, str, float] | None = None
        self._stop = threading.Event()
        if heartbeat_interval_s > 0:
            thread = threading.Thread(
                target=self._beat,
                args=(heartbeat_interval_s,),
                name="repro-heartbeat",
                daemon=True,
            )
            thread.start()

    def _put(self, kind: str, payload) -> None:
        frame = pickle.dumps((kind, payload), pickle.HIGHEST_PROTOCOL)
        if len(frame) + 4 > PIPE_BUF:  # 4: send_bytes' length header
            return  # a write past PIPE_BUF could interleave: drop it whole
        try:
            self.conn.send_bytes(frame)
        except OSError:
            pass  # full pipe or closed reader: never let telemetry fail a cell

    def emit_log(self, line: str) -> None:
        self._put("log", line)

    def cell_started(self, label: str, cell_id: str, attempt: int) -> None:
        now = time.time()
        with self._lock:
            self._cell = (label, cell_id, now)
        self._put(
            "event",
            cell_event(
                self.run_id, "started", label, cell_id, self.pid, attempt, ts=now
            ),
        )

    def cell_finished(
        self,
        label: str,
        cell_id: str,
        attempt: int,
        elapsed_s: float,
        error: str | None = None,
    ) -> None:
        with self._lock:
            self._cell = None
        self._put(
            "event",
            cell_event(
                self.run_id,
                "failed" if error is not None else "finished",
                label,
                cell_id,
                self.pid,
                attempt,
                elapsed_s=elapsed_s,
                error=error,
            ),
        )

    def _beat(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            with self._lock:
                cell = self._cell
            now = time.time()
            self._put(
                "hb",
                {
                    "ts": now,
                    "run_id": self.run_id,
                    "worker": self.pid,
                    "rss_bytes": _rss_bytes(),
                    "cell": cell[0] if cell else None,
                    "cell_id": cell[1] if cell else None,
                    "cell_elapsed_s": (now - cell[2]) if cell else None,
                },
            )

    def close(self) -> None:
        self._stop.set()


class LocalChannel:
    """In-process stand-in for :class:`WorkerChannel` in serial runs.

    Serial campaigns (``max_workers=1``) have no pool and no pipe, so
    lifecycle events feed the monitor directly; there are no heartbeats
    (the "worker" is the parent itself) and log records already reach
    the parent's sinks.
    """

    def __init__(self, monitor: "FleetMonitor") -> None:
        self.monitor = monitor
        self.run_id = monitor.run_id
        self.pid = os.getpid()

    def cell_started(self, label: str, cell_id: str, attempt: int) -> None:
        self.monitor.on_event(
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
        self.monitor.on_event(
            cell_event(
                self.run_id,
                "failed" if error is not None else "finished",
                label,
                cell_id,
                self.pid,
                attempt,
                elapsed_s=elapsed_s,
                error=error,
            )
        )


class _ChannelLogSink:
    """A log sink that forwards each line over the worker channel."""

    def __init__(self, channel: WorkerChannel) -> None:
        self.channel = channel

    def emit(self, line: str) -> None:
        self.channel.emit_log(line)


#: The worker process's channel, installed by :func:`init_worker`.
_CHANNEL: WorkerChannel | None = None


def worker_channel() -> WorkerChannel | None:
    """This process's channel (``None`` outside an initialized worker)."""
    return _CHANNEL


def init_worker(
    conn, run_id: str, log_level: str, heartbeat_interval_s: float
) -> None:
    """Pool initializer: wire this worker into the telemetry channel.

    ``conn`` is the write end of the run's telemetry pipe, already
    non-blocking.  Re-applies the parent's log threshold with a single
    pipe-forwarding sink (worker records surface through the parent's
    sinks instead of racing it for stderr/file handles) and starts the
    heartbeat thread.
    """
    global _CHANNEL
    _CHANNEL = WorkerChannel(
        conn, run_id, heartbeat_interval_s=heartbeat_interval_s
    )
    manager = root_manager()
    manager.level = log_level
    manager.sinks = [_ChannelLogSink(_CHANNEL)]


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
        "cell_id": None,
        "cell_started_ts": None,
        "last_hb_ts": None,
        "heartbeats": 0,
        "rss_bytes": 0,
        "max_rss_bytes": 0,
        "done": 0,
        "failed_attempts": 0,
        "busy_s": 0.0,
        "max_gap_s": 0.0,
        "last_cell": None,
    }


class FleetMonitor:
    """Thread-safe parent-side fold of the fleet telemetry stream.

    Fed from three directions — the pipe drainer thread (worker
    events, heartbeats, forwarded logs), the runner's main thread
    (queued cells, authoritative cell outcomes) and the ``--watch``
    repaint thread (snapshots) — so every method takes the one lock.

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
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_S,
        event_sink=None,
        clock=time.time,
    ) -> None:
        self.run_id = run_id or new_request_id()
        self.workers = max(1, workers)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.event_sink = event_sink
        self.clock = clock
        self.name = ""
        self.total = 0
        self.started_at = clock()
        self.finished_at: float | None = None
        self.wall_s = 0.0
        self.log_lines = 0
        self._cells: dict[str, dict] = {}
        self._workers: dict[int, dict] = {}
        self._ran_elapsed: list[float] = []
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
        elif kind == "hb":
            self.on_heartbeat(payload)

    def on_log(self, line: str) -> None:
        """Re-emit one forwarded worker log line through the parent's
        sinks (level filtering already happened worker-side)."""
        with self._lock:
            self.log_lines += 1
        for sink in root_manager().sinks:
            sink.emit(line)

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
        with self._lock:
            st = self._cells.setdefault(label, _new_cell(label, doc["cell_id"]))
            w = self._workers.setdefault(pid, _new_worker(pid))
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
                w["cell_id"] = doc["cell_id"]
                w["cell_started_ts"] = doc["ts"]
                w["last_cell"] = label
                self._emit_event(doc)
            elif kind in ("finished", "failed"):
                elapsed = float(doc.get("elapsed_s") or 0.0)
                w["cell"] = None
                w["cell_id"] = None
                w["cell_started_ts"] = None
                w["busy_s"] += elapsed
                if kind == "finished":
                    w["done"] += 1
                    if not st["counted"]:
                        st["counted"] = True
                        self._ran_elapsed.append(elapsed)
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

    def on_heartbeat(self, doc: dict) -> None:
        """One worker heartbeat: liveness, RSS, current cell age."""
        with self._lock:
            w = self._workers.setdefault(doc["worker"], _new_worker(doc["worker"]))
            last = w["last_hb_ts"]
            if last is not None and w["cell"] is not None:
                w["max_gap_s"] = max(w["max_gap_s"], doc["ts"] - last)
            w["last_hb_ts"] = doc["ts"]
            w["heartbeats"] += 1
            rss = int(doc.get("rss_bytes") or 0)
            w["rss_bytes"] = rss
            w["max_rss_bytes"] = max(w["max_rss_bytes"], rss)

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
                    st["counted"] = True
                    self._ran_elapsed.append(result.elapsed_s)
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
        """Close the run: stamp the end time and the final heartbeat
        gap of any worker that still holds an unfinished cell."""
        with self._lock:
            self.finished_at = self.clock()
            self.wall_s = (
                wall_s if wall_s is not None else self.finished_at - self.started_at
            )
            for w in self._workers.values():
                if w["cell"] is not None and w["last_hb_ts"] is not None:
                    w["max_gap_s"] = max(
                        w["max_gap_s"], self.finished_at - w["last_hb_ts"]
                    )

    # -- derived views -------------------------------------------------
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
        }

    def snapshot(self) -> dict:
        """One consistent view of the fleet for rendering."""
        now = self.clock()
        with self._lock:
            counters = self._counters()
            done = sum(st["final"] for st in self._cells.values())
            wall = (
                self.wall_s
                if self.finished_at is not None
                else now - self.started_at
            )
            remaining = max(0, self.total - done)
            if remaining == 0 and self.total > 0:
                eta = 0.0
            elif self._ran_elapsed:
                avg = sum(self._ran_elapsed) / len(self._ran_elapsed)
                eta = remaining * avg / self.workers
            else:
                eta = None
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
                        "hb_age_s": (
                            now - w["last_hb_ts"]
                            if w["last_hb_ts"] is not None
                            else None
                        ),
                        "heartbeats": w["heartbeats"],
                        "done": w["done"],
                        "failed_attempts": w["failed_attempts"],
                        "rss_bytes": w["rss_bytes"],
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
                    status=st["status"] if st["final"] else (
                        "running" if st["status"] == "running" else "queued"
                    ),
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
                    heartbeats=w["heartbeats"],
                    max_heartbeat_gap_s=w["max_gap_s"],
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
                heartbeat_interval_s=self.heartbeat_interval_s,
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
