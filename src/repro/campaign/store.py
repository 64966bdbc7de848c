"""Persistent, content-addressed result store.

Layout (default root ``.repro-cache/``)::

    .repro-cache/
        index.db            # SQLite: one row per cell, queryable metadata
        payloads/ab/abcd… .json   # full SolveReport, JSON-encoded

Every cell is keyed by a SHA-256 **content hash** over the complete
:class:`~repro.harness.experiment.ExperimentConfig`, the scheme name,
and the code-relevant versions (store format, ``repro``, ``numpy`` and
``scipy``).  Any change to any of those — a different seed, tolerance,
CR cadence, or a library upgrade that could perturb the numerics —
yields a different key, so a cache hit is only ever served for a cell
that would reproduce bit-identically.

Writes are atomic (payload to a temp file + ``os.replace``, then the
index row), so a killed campaign never leaves a row pointing at a
half-written payload; a payload missing its row (or vice versa) is
treated as a miss and repaired on the next ``put``.  SQLite runs in WAL
mode with a busy timeout so several processes may share one store.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

import repro
from repro.campaign.serialize import report_from_dict, report_to_dict
from repro.campaign.spec import CampaignCell
from repro.core.report import SolveReport
from repro.harness.experiment import ExperimentConfig

#: Bump when the payload schema or hashed key material changes shape.
#: 2: telemetry payload field + ExperimentConfig.trace in the key.
#: 3: ExperimentConfig.engine + fault_scope in the key.
#: 4: ExperimentConfig.backend in the key.
#: 5: ExperimentConfig.victims_per_fault in the key.
#: 6: ExperimentConfig.preconditioner in the key.
STORE_FORMAT = 6

DEFAULT_ROOT = Path(".repro-cache")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    matrix       TEXT NOT NULL,
    scheme       TEXT NOT NULL,
    nranks       INTEGER NOT NULL,
    n_faults     INTEGER NOT NULL,
    seed         INTEGER NOT NULL,
    scale        REAL NOT NULL,
    cr_interval  TEXT NOT NULL,
    tol          REAL NOT NULL,
    converged    INTEGER NOT NULL,
    iterations   INTEGER NOT NULL,
    time_s       REAL NOT NULL,
    energy_j     REAL NOT NULL,
    elapsed_s    REAL NOT NULL,
    created_at   REAL NOT NULL,
    payload      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_cell ON results (matrix, scheme, nranks);
CREATE TABLE IF NOT EXISTS manifests (
    run_id       TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    created_at   REAL NOT NULL,
    doc          TEXT NOT NULL
);
"""


def _hash_material(store_format: int, config: dict, scheme: str) -> str:
    material = {
        "store_format": store_format,
        "versions": {
            "repro": repro.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config": config,
        "scheme": scheme,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_CONFIG_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def _config_dict(config: ExperimentConfig) -> dict:
    """The config as the flat ``{field: value}`` record that is hashed
    and stored.  Every field is a scalar, so this is ``asdict`` without
    its recursive deep copy."""
    return {name: getattr(config, name) for name in _CONFIG_FIELD_NAMES}


def cell_key(cell: CampaignCell) -> str:
    """Content hash identifying one cell's result.

    Hashed once per cell *object* and kept on it: a cell is frozen, so
    the key on it cannot go stale, and every later lookup, write, log
    line and manifest row for that cell reads it back.  There is no
    table of keys by value — an equal cell built elsewhere (a fresh
    ``spec.cells()``, another process) hashes for itself.
    """
    key = cell.__dict__.get("_key")
    if key is None:
        key = _hash_material(STORE_FORMAT, _config_dict(cell.config), cell.scheme)
        # the way functools.cached_property writes past a frozen __setattr__
        cell.__dict__["_key"] = key
    return key


@dataclass(frozen=True)
class StoreEntry:
    """One indexed result plus the bookkeeping the summary reports."""

    key: str
    cell: CampaignCell
    report: SolveReport
    elapsed_s: float
    created_at: float


class ResultStore:
    """SQLite-indexed JSON store of solved cells."""

    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        self.root = Path(root)
        self.payload_dir = self.root / "payloads"
        self.payload_dir.mkdir(parents=True, exist_ok=True)
        # One connection shared across threads: the serving tier reads
        # and writes from worker-pool threads, so the connection is
        # opened with check_same_thread=False and every statement runs
        # under _lock (sqlite3 objects are not themselves thread-safe).
        # WAL + busy_timeout handle concurrent *processes* on the same
        # store; the lock handles concurrent threads on this handle.
        self._lock = threading.RLock()
        self._db = sqlite3.connect(
            self.root / "index.db", timeout=30.0, check_same_thread=False
        )
        self._db.executescript(_SCHEMA)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA busy_timeout=30000")
        self._db.commit()
        #: Lookup counters since open: ``hits`` counts get_entry() calls
        #: served a report, ``misses`` the rest.  Surfaced by stats()
        #: and the serving tier's /v1/store/stats endpoint.
        self.hits = 0
        self.misses = 0
        #: put() calls since open that replaced an existing row — i.e.
        #: compute repeated for a cell the store already held.  The
        #: ``cache_stampede`` fleet detector alerts when a campaign's
        #: delta on this counter gets large.
        self.overwrites = 0

    # ------------------------------------------------------------------
    def key(self, cell: CampaignCell) -> str:
        return cell_key(cell)

    def _payload_path(self, key: str) -> Path:
        return self.payload_dir / key[:2] / f"{key}.json"

    def __contains__(self, cell: CampaignCell) -> bool:
        return self.get_entry(cell) is not None

    def get_entry(self, cell: CampaignCell) -> StoreEntry | None:
        """Full entry for a cell, or ``None`` on a miss.

        A cell has one key: rows written under older store formats stay
        listable (:meth:`entries`, :meth:`entry_by_key`) but are never
        served for a cell.
        """
        key = cell_key(cell)
        row = self._index_row(key)
        payload = None if row is None else self._read_payload(key)
        if payload is None:
            with self._lock:
                if row is not None:
                    # stale index row (payload pruned or corrupted): self-heal
                    self._db.execute("DELETE FROM results WHERE key = ?", (key,))
                    self._db.commit()
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return self._entry(key, payload, *row, cell=cell)

    def entry_by_key(self, key: str) -> StoreEntry | None:
        """The entry stored under exactly ``key``: one index probe, then
        one payload read.  Not a cell lookup — no hit/miss counting,
        and a stale row is left for
        :meth:`get_entry` to heal."""
        row = self._index_row(key)
        payload = None if row is None else self._read_payload(key)
        if payload is None:
            return None
        return self._entry(key, payload, *row)

    def _index_row(self, key: str) -> tuple[float, float] | None:
        with self._lock:
            return self._db.execute(
                "SELECT elapsed_s, created_at FROM results WHERE key = ?", (key,)
            ).fetchone()

    def _read_payload(self, key: str) -> dict | None:
        """The one place a payload file is read; ``None`` when it is
        missing or does not parse."""
        try:
            return json.loads(self._payload_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _entry(
        self,
        key: str,
        payload: dict,
        elapsed_s: float,
        created_at: float,
        cell: CampaignCell | None = None,
    ) -> StoreEntry:
        if cell is None:
            # rebuilt from the payload's own config record, so no spec
            # is needed to read a store back
            cell = CampaignCell(
                config=ExperimentConfig(**payload["cell"]["config"]),
                scheme=payload["cell"]["scheme"],
            )
        return StoreEntry(
            key=key,
            cell=cell,
            report=report_from_dict(payload["report"]),
            elapsed_s=elapsed_s,
            created_at=created_at,
        )

    def get(self, cell: CampaignCell) -> SolveReport | None:
        entry = self.get_entry(cell)
        return entry.report if entry else None

    def put(
        self, cell: CampaignCell, report: SolveReport, *, elapsed_s: float = 0.0
    ) -> str:
        """Persist one result; returns its key.  Last writer wins."""
        key = cell_key(cell)
        path = self._payload_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "cell": {"config": _config_dict(cell.config), "scheme": cell.scheme},
            "report": report_to_dict(report),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        cfg = cell.config
        with self._lock:
            if self._index_row(key) is not None:
                self.overwrites += 1
            self._db.execute(
                "INSERT OR REPLACE INTO results VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    cfg.matrix,
                    cell.scheme,
                    cfg.nranks,
                    cfg.n_faults,
                    cfg.seed,
                    cfg.scale,
                    str(cfg.cr_interval),
                    cfg.tol,
                    int(report.converged),
                    report.iterations,
                    report.time_s,
                    report.energy_j,
                    elapsed_s,
                    time.time(),
                    str(path.relative_to(self.root)),
                ),
            )
            self._db.commit()
        return key

    # ------------------------------------------------------------------
    def put_manifest(self, manifest) -> str:
        """Persist a campaign :class:`~repro.campaign.manifest.
        RunManifest`, keyed by its run id; returns the run id.

        Manifests live in their own table beside the results — execution
        evidence about a campaign, fully separate from the
        content-addressed payloads, so storing one can never perturb a
        stored report.
        """
        from repro.campaign.manifest import manifest_to_doc

        doc = json.dumps(
            manifest_to_doc(manifest), sort_keys=True, separators=(",", ":")
        )
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO manifests VALUES (?, ?, ?, ?)",
                (manifest.run_id, manifest.name, manifest.finished_at, doc),
            )
            self._db.commit()
        return manifest.run_id

    def get_manifest(self, run_id: str):
        """The stored manifest for one run id, or ``None``."""
        from repro.campaign.manifest import manifest_from_doc

        with self._lock:
            row = self._db.execute(
                "SELECT doc FROM manifests WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        return manifest_from_doc(json.loads(row[0]))

    def latest_manifest(self):
        """The most recently finished campaign's manifest, or ``None``."""
        from repro.campaign.manifest import manifest_from_doc

        with self._lock:
            row = self._db.execute(
                "SELECT doc FROM manifests ORDER BY created_at DESC, run_id "
                "LIMIT 1"
            ).fetchone()
        if row is None:
            return None
        return manifest_from_doc(json.loads(row[0]))

    def manifests(self) -> list[tuple[str, str, float]]:
        """``(run_id, campaign name, finished_at)`` rows, newest first."""
        with self._lock:
            return self._db.execute(
                "SELECT run_id, name, created_at FROM manifests "
                "ORDER BY created_at DESC, run_id"
            ).fetchall()

    # ------------------------------------------------------------------
    def entries(self):
        """Iterate every stored entry, oldest first (then by key).

        Cells are rebuilt from the payload's own config record, so the
        iterator works on any store without knowing the spec that filled
        it — this is what ``repro trace`` walks.
        """
        with self._lock:
            rows = self._db.execute(
                "SELECT key, elapsed_s, created_at FROM results "
                "ORDER BY created_at, key"
            ).fetchall()
        for key, elapsed_s, created_at in rows:
            payload = self._read_payload(key)
            if payload is None:
                continue  # stale row; get_entry() would self-heal it
            yield self._entry(key, payload, elapsed_s, created_at)

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def payload_bytes(self) -> int:
        """Total on-disk size of every payload file, in bytes."""
        total = 0
        for sub in self.payload_dir.iterdir():
            if sub.is_dir():
                for f in sub.glob("*.json"):
                    try:
                        total += f.stat().st_size
                    except OSError:
                        continue  # pruned between listing and stat
        return total

    def stats(self) -> dict:
        """Store-wide counters: index totals, on-disk payload bytes and
        the hit/miss counters since open (the serving tier's
        ``/v1/store/stats`` payload)."""
        with self._lock:
            n, elapsed = self._db.execute(
                "SELECT COUNT(*), COALESCE(SUM(elapsed_s), 0) FROM results"
            ).fetchone()
            hits, misses, overwrites = self.hits, self.misses, self.overwrites
        return {
            "entries": n,
            "compute_seconds_banked": elapsed,
            "payload_bytes": self.payload_bytes(),
            "hits": hits,
            "misses": misses,
            "overwrites": overwrites,
            "root": str(self.root),
        }

    def clear(self) -> None:
        """Drop every entry (index, payloads and manifests)."""
        with self._lock:
            self._db.execute("DELETE FROM results")
            self._db.execute("DELETE FROM manifests")
            self._db.commit()
        for sub in self.payload_dir.iterdir():
            if sub.is_dir():
                for f in sub.glob("*.json"):
                    f.unlink()

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
