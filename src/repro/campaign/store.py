"""Persistent, content-addressed result store: one SQLite file.

Layout (default root ``.repro-cache/``)::

    .repro-cache/
        index.db            # SQLite: one row per cell, its frame inside

A row of ``results`` holds a cell's queryable metadata and, in its
``payload`` column, the cell's report as one binary frame::

    magic "REPRO\0F8" (8 bytes) | SHA-256 of everything after it (32 bytes)
    | JSON header length (uint64 LE)
    | JSON header: {"key", "cell", "report" minus residual_history
                    and telemetry}, keys sorted
    | telemetry section length (uint64 LE; 0 for an untraced report)
    | telemetry section: the report's telemetry as JSON, in
      telemetry_to_dict's key order
    | residual_history as raw little-endian float64

The digest covers every byte after it and is checked before anything is
parsed, so a truncated or bit-flipped frame is a miss (its row is
dropped and the cell recomputed), never a wrong cached answer; so is a
sound frame whose header records another cell's key.  The history is
stored as the exact bytes of its doubles; the header and the section
are :func:`~repro.campaign.serialize.report_to_dict`'s JSON, so the HTTP
and diff shapes do not change.  The section is handed back unparsed: a
read report's telemetry builds itself on first use
(:meth:`~repro.obs.telemetry.Telemetry.from_json`), and until then
re-encodes to the same dict, unsorted, as the report it was computed as.
A payload that is not such a frame is damaged like any other, so a
store written before frames moved into ``index.db`` (its rows naming
files under ``payloads/``) reads as empty; deleting its directory
reclaims the files' space.

Every cell is keyed by a SHA-256 **content hash** over the complete
:class:`~repro.harness.experiment.ExperimentConfig`, the scheme name,
and the code-relevant versions (store format, ``repro``, ``numpy`` and
``scipy``).  Any change to any of those — a different seed, tolerance,
CR cadence, or a library upgrade that could perturb the numerics —
yields a different key, so a cache hit is only ever served for a cell
that would reproduce bit-identically.

A put is one ``INSERT`` and one commit, so the fsync SQLite makes per
commit (its default ``synchronous`` setting) makes the row and its frame
durable together, and a writer killed mid-put leaves the whole row or
none.  A lookup is one ``SELECT`` returning the row and its frame.
SQLite runs in WAL mode with a busy timeout so several processes may
share one store; a write that waits on another connection's lock for
longer than :data:`BUSY_TIMEOUT_S` raises :class:`StoreLockedError`.
Since the frames live in ``index.db``, a damaged ``index.db`` has
nothing to be rebuilt from: it is an error, and deleting the file
drops its cells, which are then recomputed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
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
from repro.obs.telemetry import Telemetry

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

#: SQLite's page cache per connection, KiB.  Its 2 MiB default held
#: every page a cached resume read, about 1 MB more peak RSS on the
#: 84-cell benchmark store; past 64 KiB, reads come from the operating
#: system's file cache at no measured cost in cells per second.
_CACHE_KIB = 64

#: First bytes of every frame.
_FRAME_MAGIC = b"REPRO\x00F8"

#: Where a frame's fields start: the SHA-256 of everything from the
#: header length on, the header length (uint64 LE), the JSON header.
_DIGEST_AT, _LENGTH_AT, _HEADER_AT = 8, 40, 48

#: Bytes of a section length field (uint64 LE).
_LENGTH_SIZE = _HEADER_AT - _LENGTH_AT

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
    payload      BLOB NOT NULL
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


def _frame(payload: dict, telemetry: dict | None, history) -> bytes:
    """A frame's bytes: ``payload`` as the JSON header, then
    ``telemetry`` as the section, then ``history`` as raw float64
    (module docstring)."""
    header = json.dumps(payload, sort_keys=True).encode()
    section = b"" if telemetry is None else json.dumps(telemetry).encode()
    column = np.asarray(history, dtype=_COLUMN_DTYPE).tobytes()
    body = (
        len(header).to_bytes(_LENGTH_SIZE, "little"),
        header,
        len(section).to_bytes(_LENGTH_SIZE, "little"),
        section,
        column,
    )
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    return b"".join((_FRAME_MAGIC, digest.digest(), *body))


def _unframe(blob: bytes) -> dict | None:
    """The payload a frame holds, its history back under
    ``report.residual_history`` as an array of its own and its telemetry
    section under ``report.telemetry`` as an unbuilt bundle; ``None``
    unless the digest matches and the header parses."""
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
        report = payload["report"]
        section_at = column_at + _LENGTH_SIZE
        column_at = section_at + int.from_bytes(blob[column_at:section_at], "little")
        if column_at > section_at:
            report["telemetry"] = Telemetry.from_json(blob[section_at:column_at])
        # frombuffer rejects a column that is past the end or not whole
        # floats; astype copies, so the array owns its memory
        report["residual_history"] = np.frombuffer(
            blob, dtype=_COLUMN_DTYPE, offset=column_at
        ).astype(np.float64)
    except (ValueError, KeyError, TypeError):
        return None
    return payload


def _decode(key: str, blob: bytes) -> dict | None:
    """The one place a stored payload is decoded: the payload of a frame
    whose digest checks out and whose header records ``key``, or
    ``None`` when it is damaged.  The digest vouches for a frame's
    content, not for whose it is, so a sound frame that records another
    key (copied onto this row) is damaged too; so is any payload that is
    not a frame, an old store's leftovers included."""
    payload = _unframe(blob)
    if payload is None or payload.get("key") != key:
        return None
    return payload


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


def payload_dict(cell: CampaignCell, report: SolveReport) -> dict:
    """The one record of a stored cell: ``{"key", "cell": {"config",
    "scheme"}, "report"}``, the report as :func:`~repro.campaign.
    serialize.report_to_dict` encodes it.  A frame's JSON header is this
    dict with ``residual_history`` lifted into the column; a line of a
    ``repro trace --export`` file is this dict whole (:func:`payload_line`)."""
    return {
        "key": cell_key(cell),
        "cell": {"config": _config_dict(cell.config), "scheme": cell.scheme},
        "report": report_to_dict(report),
    }


def entry_from_payload(
    payload: dict,
    elapsed_s: float = 0.0,
    created_at: float = 0.0,
    cell: CampaignCell | None = None,
) -> StoreEntry:
    """Invert :func:`payload_dict`.  Without ``cell`` the cell is rebuilt
    from the payload's own config record, so no spec is needed to read a
    store or an export back."""
    if cell is None:
        cell = CampaignCell(
            config=ExperimentConfig(**payload["cell"]["config"]),
            scheme=payload["cell"]["scheme"],
        )
    return StoreEntry(
        key=payload["key"],
        cell=cell,
        report=report_from_dict(payload["report"]),
        elapsed_s=elapsed_s,
        created_at=created_at,
    )


def payload_line(cell: CampaignCell, report: SolveReport) -> str:
    """One cell as a line of a trace export: :func:`payload_dict` as
    JSON, keys sorted as in a frame's header."""
    return json.dumps(payload_dict(cell, report), sort_keys=True)


def load_payload_lines(path: str | Path) -> list[StoreEntry]:
    """The entries a trace export holds, one per non-blank line, in file
    order.  A line that is not a payload (a pre-payload export's
    ``"stream"`` records included) raises :class:`ValueError` naming
    the line and the shape it should have."""
    entries = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        if not raw.strip():
            continue
        try:
            entries.append(entry_from_payload(json.loads(raw)))
        except (ValueError, KeyError, TypeError):
            raise ValueError(
                f"{path} line {lineno} is not a result-store payload: expected "
                '{"key", "cell": {"config", "scheme"}, "report"}, one cell '
                "per line as 'repro trace --export' writes it"
            ) from None
    return entries


class ResultStore:
    """SQLite store of solved cells, one row per cell, its frame inside."""

    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
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
        self._db.execute(f"PRAGMA cache_size=-{_CACHE_KIB}")
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
        """Run one write on the index under ``_lock`` and commit it, or
        roll all of it back if it raises.  A write lock held elsewhere
        past :data:`BUSY_TIMEOUT_S` raises :class:`StoreLockedError`."""
        with self._lock:
            try:
                yield self._db
                self._db.commit()
            except sqlite3.OperationalError as exc:
                self._db.rollback()
                if "locked" not in str(exc):
                    raise
                raise StoreLockedError(
                    f"result store index {self.root / 'index.db'} is locked: "
                    f"another connection held its write lock for over "
                    f"{BUSY_TIMEOUT_S:g}s"
                ) from exc
            except BaseException:
                self._db.rollback()
                raise

    def _index(self, db, key: str, entry: StoreEntry, blob: bytes) -> None:
        """Write ``entry``'s row under ``key``, ``blob`` its payload
        (``db`` is the handle :meth:`_writing` yields)."""
        cfg, report = entry.cell.config, entry.report
        db.execute(
            "INSERT OR REPLACE INTO results VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                cfg.matrix,
                entry.cell.scheme,
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
                entry.elapsed_s,
                entry.created_at,
                blob,
            ),
        )

    def __contains__(self, cell: CampaignCell) -> bool:
        return self.get_entry(cell) is not None

    def get_entry(self, cell: CampaignCell) -> StoreEntry | None:
        """Full entry for a cell, or ``None`` on a miss.

        A cell has one key, and only a frame whose digest checks out is
        served under it; any other row there is damaged and dropped.
        """
        key = cell_key(cell)
        row = self._row(key)
        payload = None if row is None else _decode(key, row[2])
        if payload is None:
            if row is not None:
                # damaged: self-heal
                with self._writing() as db:
                    db.execute("DELETE FROM results WHERE key = ?", (key,))
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return entry_from_payload(payload, row[0], row[1], cell=cell)

    def entry_by_key(self, key: str) -> StoreEntry | None:
        """The entry stored under exactly ``key``: one ``SELECT``.  Not a
        cell lookup — no hit/miss counting, and a damaged row is left
        for :meth:`get_entry` to heal."""
        row = self._row(key)
        payload = None if row is None else _decode(key, row[2])
        if payload is None:
            return None
        return entry_from_payload(payload, row[0], row[1])

    def _row(self, key: str) -> tuple[float, float, bytes] | None:
        """The one read of a stored cell: ``(elapsed_s, created_at,
        payload)``, or ``None`` when ``key`` has no row."""
        with self._lock:
            return self._db.execute(
                "SELECT elapsed_s, created_at, payload FROM results WHERE key = ?",
                (key,),
            ).fetchone()

    def get(self, cell: CampaignCell) -> SolveReport | None:
        entry = self.get_entry(cell)
        return entry.report if entry else None

    def put(
        self, cell: CampaignCell, report: SolveReport, *, elapsed_s: float = 0.0
    ) -> str:
        """Persist one result; returns its key.  Last writer wins."""
        key = cell_key(cell)
        payload = payload_dict(cell, report)
        record = payload["report"]
        del record["residual_history"]  # the frame's float64 column
        telemetry = record.pop("telemetry")  # the frame's telemetry section
        blob = _frame(payload, telemetry, report.residual_history)
        entry = StoreEntry(key, cell, report, elapsed_s, time.time())
        with self._writing() as db:
            replaced = db.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
            self._index(db, key, entry, blob)
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
        it — this is what ``repro trace``, ``report`` and ``doctor`` read.
        """
        with self._lock:
            keys = self._db.execute(
                "SELECT key FROM results ORDER BY created_at, key"
            ).fetchall()
        for (key,) in keys:
            entry = self.entry_by_key(key)
            if entry is not None:  # else damaged; get_entry() would heal it
                yield entry

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def payload_bytes(self) -> int:
        """Total length of every stored payload, in bytes."""
        with self._lock:
            return self._db.execute(
                "SELECT COALESCE(SUM(length(payload)), 0) FROM results"
            ).fetchone()[0]

    def stats(self) -> dict:
        """Store-wide counters: index totals, stored payload bytes and
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
        """Drop every entry and manifest."""
        with self._writing() as db:
            db.execute("DELETE FROM results")
            db.execute("DELETE FROM manifests")

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
