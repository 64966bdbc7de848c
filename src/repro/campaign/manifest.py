"""The persisted campaign run manifest.

A :class:`RunManifest` is the fleet-level record of one campaign
execution: per-cell timings (queue-wait vs compute, wasted attempts),
attempt counts, the worker that solved each cell, and per-worker
aggregates (cells done, busy seconds, peak RSS).  Its rows are the
:class:`~repro.campaign.fleet.FleetMonitor`'s own state, which folds
every cell event into them as it arrives; the manifest the monitor
takes at campaign end is written into the
:class:`~repro.campaign.store.ResultStore` keyed by the campaign run
id, and read back by ``repro report --campaign`` and the fleet-scoped
detectors behind ``repro doctor``.

The manifest is **side-band evidence only**: it describes how the
campaign executed, never what the cells computed, so persisting it can
never perturb the stored reports' bit-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.harness.reporting import format_table
from repro.obs.term import fmt_bytes, hms

#: Bump when the manifest document schema changes shape.
MANIFEST_SCHEMA = 2

#: The cell statuses a manifest may carry.  A runner builds its manifest
#: only once every cell has settled, so each is terminal.
CELL_STATUSES = ("ran", "cached", "failed")


class ManifestError(ValueError):
    """A document that does not parse as a run manifest."""


@dataclass
class ManifestCell:
    """One cell's execution record within a campaign run (mutable: the
    fleet monitor updates its rows in place while the run is live)."""

    label: str
    cell_id: str
    scheme: str
    status: str
    attempts: int = 1
    worker: int | None = None
    queued_ts: float | None = None
    started_ts: float | None = None
    finished_ts: float | None = None
    #: Seconds from submission to a worker starting the cell's config
    #: group, summed over queued attempts.  A pool runs each group whole
    #: on one worker, so a pooled cell's time behind its group-mates is
    #: not queue wait; for a cell queued once it is ``started_ts -
    #: queued_ts - queue_wait_s``.
    queue_wait_s: float = 0.0
    #: Compute seconds of the successful attempt (banked cost for
    #: cached cells).
    compute_s: float = 0.0
    #: Compute seconds burned by failed attempts (wasted work).
    wasted_s: float = 0.0
    error: str | None = None


@dataclass
class ManifestWorker:
    """One worker process's aggregate record within a campaign run."""

    worker: int
    cells_done: int = 0
    failed_attempts: int = 0
    busy_s: float = 0.0
    #: Peak RSS, as the worker's finished and failed events reported it.
    max_rss_bytes: int = 0
    last_cell: str | None = None


@dataclass(frozen=True)
class RunManifest:
    """Everything a finished campaign recorded about its own execution."""

    run_id: str
    name: str
    workers: int
    started_at: float
    finished_at: float
    wall_s: float
    #: Run totals (cells by status, retries, the seconds split, log
    #: lines).  ``dropped_frames`` counts the telemetry frames workers
    #: dropped, oversized or meeting a full pipe.  It is a lower bound:
    #: a worker reports its count only on a later lifecycle event that
    #: gets through.
    counters: dict = field(default_factory=dict)
    cells: tuple[ManifestCell, ...] = ()
    worker_rows: tuple[ManifestWorker, ...] = ()
    schema: int = MANIFEST_SCHEMA

    @property
    def retries(self) -> int:
        """Total retry attempts across every cell."""
        return sum(max(0, c.attempts - 1) for c in self.cells)

    def cell(self, label: str) -> ManifestCell | None:
        """The row for one cell label, or ``None``."""
        for c in self.cells:
            if c.label == label:
                return c
        return None


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_MANIFEST_FIELDS = _field_names(RunManifest)
_CELL_FIELDS = _field_names(ManifestCell)
_WORKER_FIELDS = _field_names(ManifestWorker)


def _row(record, names: tuple[str, ...]) -> dict:
    return {name: getattr(record, name) for name in names}


def manifest_to_doc(manifest: RunManifest) -> dict:
    """Encode a manifest as a JSON-shaped document.

    Rows hold scalars only, so each is read field by field, once;
    ``dataclasses.asdict`` would deep-copy every row, and twice.
    """
    doc = _row(manifest, _MANIFEST_FIELDS)
    doc["counters"] = dict(manifest.counters)
    doc["cells"] = [_row(c, _CELL_FIELDS) for c in manifest.cells]
    doc["worker_rows"] = [_row(w, _WORKER_FIELDS) for w in manifest.worker_rows]
    return doc


def manifest_from_doc(doc: dict) -> RunManifest:
    """Invert :func:`manifest_to_doc`; raises :class:`ManifestError` on
    anything that is not a conformant manifest document."""
    if not isinstance(doc, dict):
        raise ManifestError("manifest document is not an object")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"run {doc.get('run_id')}: unsupported manifest schema "
            f"{doc.get('schema')!r} (expected {MANIFEST_SCHEMA})"
        )
    required = {
        "run_id", "name", "workers", "started_at", "finished_at",
        "wall_s", "counters", "cells", "worker_rows",
    }
    missing = required - set(doc)
    if missing:
        raise ManifestError(f"missing keys: {', '.join(sorted(missing))}")
    try:
        cells = tuple(ManifestCell(**c) for c in doc["cells"])
        workers = tuple(ManifestWorker(**w) for w in doc["worker_rows"])
    except TypeError as exc:
        raise ManifestError(f"malformed manifest row: {exc}") from None
    for c in cells:
        if c.status not in CELL_STATUSES:
            raise ManifestError(f"unknown cell status {c.status!r}")
    return RunManifest(
        run_id=doc["run_id"],
        name=doc["name"],
        workers=doc["workers"],
        started_at=doc["started_at"],
        finished_at=doc["finished_at"],
        wall_s=doc["wall_s"],
        counters=dict(doc["counters"]),
        cells=cells,
        worker_rows=workers,
        schema=doc["schema"],
    )


def _opt(value: float | None, fmt: str = "{:.2f}") -> str:
    return "-" if value is None else fmt.format(value)


def format_manifest(manifest: RunManifest) -> str:
    """Terminal rendering: header, worker table, per-cell table."""
    c = manifest.counters
    header = [
        f"run manifest {manifest.run_id} — campaign {manifest.name!r}, "
        f"{manifest.workers} worker(s), wall {hms(manifest.wall_s)}",
        f"  cells: {c.get('cells', len(manifest.cells))} total — "
        f"{c.get('ran', 0)} ran, {c.get('cached', 0)} cached, "
        f"{c.get('failed', 0)} failed, {c.get('retries', 0)} retries, "
        f"{c.get('store_overwrites', 0)} store overwrites",
        f"  attribution: queue-wait {c.get('queue_wait_s', 0.0):.2f}s, "
        f"compute {c.get('compute_s', 0.0):.2f}s, "
        f"wasted {c.get('wasted_s', 0.0):.2f}s, "
        f"banked {c.get('banked_s', 0.0):.2f}s",
        f"  telemetry: at least {c.get('dropped_frames', 0)} dropped frames",
    ]
    blocks = ["\n".join(header)]
    if manifest.worker_rows:
        rows = [
            [
                w.worker,
                w.cells_done,
                w.failed_attempts,
                f"{w.busy_s:.2f}",
                fmt_bytes(w.max_rss_bytes),
                w.last_cell or "-",
            ]
            for w in manifest.worker_rows
        ]
        blocks.append(
            format_table(
                ["pid", "cells", "fails", "busy_s", "rss", "last_cell"],
                rows,
                title="workers",
            )
        )
    if manifest.cells:
        rows = [
            [
                m.label,
                m.status,
                m.attempts,
                m.worker if m.worker is not None else "-",
                _opt(None if m.queued_ts is None else m.queue_wait_s),
                f"{m.compute_s:.2f}",
                f"{m.wasted_s:.2f}" if m.wasted_s else "-",
                (m.error or "")[:40] or "-",
            ]
            for m in manifest.cells
        ]
        blocks.append(
            format_table(
                [
                    "cell", "status", "tries", "pid", "wait_s",
                    "compute_s", "wasted_s", "error",
                ],
                rows,
                title="cells",
            )
        )
    return "\n\n".join(blocks)
