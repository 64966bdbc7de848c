"""Persistent, content-addressed result store.

Layout (default root ``.repro-cache/``)::

    .repro-cache/
        index.db            # SQLite: one row per cell, queryable metadata
        payloads/ab/abcd… .frame  # full SolveReport, one binary frame

A payload file is one frame::

    magic (8 bytes) | SHA-256 of everything after it (32 bytes)
    | JSON header length (uint64 LE)
    | JSON header: {"key", "cell", "report" minus residual_history}
    | residual_history as raw little-endian float64

The digest covers every byte after it and is checked before anything is
parsed, so a truncated or bit-flipped file is a miss (its row is dropped
and the cell recomputed), never a wrong cached answer; so is a sound
frame whose header records another cell's key.  The history is stored
as the exact bytes of its doubles; the header is :func:`~repro.campaign.serialize.
report_to_dict`'s JSON, so the HTTP and diff shapes do not change.
Payloads written before format 7 are ``.json`` files holding the whole
record as JSON: they stay listable (:meth:`ResultStore.entries`,
:meth:`ResultStore.entry_by_key`) and are never served for a cell.

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
mode with a busy timeout so several processes may share one store; a
write that waits on another connection's lock for longer than
:data:`BUSY_TIMEOUT_S` raises :class:`StoreLockedError`.
"""

from __future__ import annotations

import contextlib
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
#: 7: payload files are digest-checked binary frames (module docstring).
STORE_FORMAT = 7

DEFAULT_ROOT = Path(".repro-cache")

#: How long a write waits for another connection's write lock on
#: ``index.db`` before it raises :class:`StoreLockedError`, seconds.
BUSY_TIMEOUT_S = 30.0

#: First bytes of every frame.  A payload file that starts otherwise is
#: a pre-7 JSON payload.
_FRAME_MAGIC = b"REPRO\x00F7"

#: Where a frame's fields start: the SHA-256 of everything from the
#: header length on, the header length (uint64 LE), the JSON header.
_DIGEST_AT, _LENGTH_AT, _HEADER_AT = 8, 40, 48

#: Payload file suffixes: frames, then pre-7 JSON payloads.
_FRAME_SUFFIX, _JSON_SUFFIX = ".frame", ".json"

#: The residual history column's on-disk dtype.
_COLUMN_DTYPE = np.dtype("<f8")

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


def _frame(payload: dict, history) -> bytes:
    """A payload file's bytes: ``payload`` as the JSON header, then
    ``history`` as raw float64 (module docstring)."""
    header = json.dumps(payload, sort_keys=True).encode()
    header_len = len(header).to_bytes(_HEADER_AT - _LENGTH_AT, "little")
    column = np.asarray(history, dtype=_COLUMN_DTYPE).tobytes()
    digest = hashlib.sha256(header_len)
    digest.update(header)
    digest.update(column)
    return b"".join((_FRAME_MAGIC, digest.digest(), header_len, header, column))


def _unframe(blob: bytes) -> dict | None:
    """The payload a frame holds, its history back under
    ``report.residual_history`` as an array of its own; ``None`` unless
    the digest matches and the header parses."""
    if (
        len(blob) < _HEADER_AT
        or blob[:_DIGEST_AT] != _FRAME_MAGIC
        or hashlib.sha256(memoryview(blob)[_LENGTH_AT:]).digest()
        != blob[_DIGEST_AT:_LENGTH_AT]
    ):
        return None
    column_at = _HEADER_AT + int.from_bytes(blob[_LENGTH_AT:_HEADER_AT], "little")
    try:
        payload = json.loads(blob[_HEADER_AT:column_at])
        # frombuffer rejects a column that is past the end or not whole
        # floats; astype copies, so the array owns its memory
        payload["report"]["residual_history"] = np.frombuffer(
            blob, dtype=_COLUMN_DTYPE, offset=column_at
        ).astype(np.float64)
    except (ValueError, KeyError, TypeError):
        return None
    return payload


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


class StoreLockedError(sqlite3.OperationalError):
    """Another connection held the index's write lock for longer than
    :data:`BUSY_TIMEOUT_S`.  Nothing of the write was committed."""


@dataclass(frozen=True)
class StoreEntry:
    """One indexed result plus the bookkeeping the summary reports."""

    key: str
    cell: CampaignCell
    report: SolveReport
    elapsed_s: float
    created_at: float


class ResultStore:
    """SQLite-indexed store of solved cells, one frame file per cell."""

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
            self.root / "index.db", timeout=BUSY_TIMEOUT_S, check_same_thread=False
        )
        self._db.executescript(_SCHEMA)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(f"PRAGMA busy_timeout={round(BUSY_TIMEOUT_S * 1000)}")
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

    @contextlib.contextmanager
    def _writing(self):
        """Run one write on the index under ``_lock`` and commit it.  A
        write lock held elsewhere past :data:`BUSY_TIMEOUT_S` rolls the
        write back and raises :class:`StoreLockedError`."""
        with self._lock:
            try:
                yield self._db
                self._db.commit()
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc):
                    raise
                self._db.rollback()
                raise StoreLockedError(
                    f"result store index {self.root / 'index.db'} is locked: "
                    f"another connection held its write lock for over "
                    f"{BUSY_TIMEOUT_S:g}s"
                ) from exc

    def _payload_path(self, key: str) -> Path:
        return self.payload_dir / key[:2] / f"{key}{_FRAME_SUFFIX}"

    def __contains__(self, cell: CampaignCell) -> bool:
        return self.get_entry(cell) is not None

    def get_entry(self, cell: CampaignCell) -> StoreEntry | None:
        """Full entry for a cell, or ``None`` on a miss.

        A cell has one key: rows written under older store formats stay
        listable (:meth:`entries`, :meth:`entry_by_key`) but are never
        served for a cell, and only a frame whose digest checks out is.
        """
        key = cell_key(cell)
        row = self._index_row(key)
        read = None if row is None else self._read_payload(key)
        if read is None or not read[1]:
            if row is not None:
                # stale index row (payload pruned, damaged or not a
                # frame): self-heal
                with self._writing() as db:
                    db.execute("DELETE FROM results WHERE key = ?", (key,))
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return self._entry(key, read[0], *row, cell=cell)

    def entry_by_key(self, key: str) -> StoreEntry | None:
        """The entry stored under exactly ``key``: one index probe, then
        one payload read.  Not a cell lookup — no hit/miss counting,
        and a stale row is left for
        :meth:`get_entry` to heal."""
        row = self._index_row(key)
        read = None if row is None else self._read_payload(key)
        if read is None:
            return None
        return self._entry(key, read[0], *row)

    def _index_row(self, key: str) -> tuple[float, float] | None:
        with self._lock:
            return self._db.execute(
                "SELECT elapsed_s, created_at FROM results WHERE key = ?", (key,)
            ).fetchone()

    def _read_payload(self, key: str) -> tuple[dict, bool] | None:
        """The one place a payload file is read: ``(payload, framed)``,
        or ``None`` when the file is missing or damaged.

        A file that starts with the frame magic is a frame, decoded only
        once its digest checks out.  Any other file is a pre-7 JSON
        payload (stores before format 7 named it ``<key>.json``):
        listable, and never served for a cell.  The digest vouches for
        a frame's content, not for whose it is, so a payload that
        records another key (a file copied or renamed onto this path)
        is damaged too.
        """
        path = self._payload_path(key)
        blob = _read_bytes(path)
        if blob is None:
            blob = _read_bytes(path.with_suffix(_JSON_SUFFIX))
        if blob is None:
            return None
        framed = blob.startswith(_FRAME_MAGIC)
        try:
            payload = _unframe(blob) if framed else json.loads(blob)
        except ValueError:
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload, framed

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
        record = report_to_dict(report)
        del record["residual_history"]  # the frame's float64 column instead
        payload = {
            "key": key,
            "cell": {"config": _config_dict(cell.config), "scheme": cell.scheme},
            "report": record,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(_frame(payload, report.residual_history))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)  # e.g. ENOSPC mid-write
            raise
        cfg = cell.config
        with self._writing() as db:
            replaced = self._index_row(key) is not None
            db.execute(
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
            if replaced:
                self.overwrites += 1
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
        with self._writing() as db:
            db.execute(
                "INSERT OR REPLACE INTO manifests VALUES (?, ?, ?, ?)",
                (manifest.run_id, manifest.name, manifest.finished_at, doc),
            )
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
            read = self._read_payload(key)
            if read is None:
                continue  # stale row; get_entry() would self-heal it
            yield self._entry(key, read[0], elapsed_s, created_at)

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def payload_files(self) -> list[Path]:
        """Every payload file on disk — frames and pre-7 JSON payloads,
        never a temp file — sorted by path."""
        return sorted(
            path
            for suffix in (_FRAME_SUFFIX, _JSON_SUFFIX)
            for path in self.payload_dir.glob(f"*/*{suffix}")
        )

    def payload_bytes(self) -> int:
        """Total on-disk size of every payload file, in bytes."""
        total = 0
        for f in self.payload_files():
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
        with self._writing() as db:
            db.execute("DELETE FROM results")
            db.execute("DELETE FROM manifests")
        for f in self.payload_files():
            f.unlink(missing_ok=True)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
