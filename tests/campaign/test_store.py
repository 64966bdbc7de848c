"""Result store: hashing, round-trips, hits and misses, self-healing
and atomic puts."""

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import signal
import sqlite3
import struct
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.campaign.serialize import report_from_dict, report_to_dict
from repro.campaign.spec import CampaignCell
from repro.campaign import store as store_module
from repro.campaign.fleet import cell_correlation_id
from repro.campaign.store import (
    STORE_FORMAT,
    ResultStore,
    StoreEntry,
    StoreLockedError,
    _hash_material,
    cell_key,
)
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs import export as export_module
from repro.obs.export import telemetry_from_dict, telemetry_to_dict
from repro.obs.telemetry import annotate_root_span


@pytest.fixture(scope="module")
def solved():
    """One real faulty solve to push through the store."""
    exp = Experiment(
        ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
    )
    cell = CampaignCell(exp.config, "LI")
    return cell, exp.run("LI")


@pytest.fixture(scope="module")
def traced_solved():
    """The same solve, traced: its frame carries a telemetry section."""
    exp = Experiment(
        ExperimentConfig(
            matrix="wathen100", nranks=8, n_faults=2, scale=0.25, trace=True
        )
    )
    cell = CampaignCell(exp.config, "LI")
    return cell, exp.run("LI")


def frame_bytes(magic: bytes, *sections: bytes) -> bytes:
    """A frame spelled out: magic, the SHA-256 of the rest, then each
    section behind its uint64 LE length, then the float64 column (the
    last section, which has no length)."""
    *sized, column = sections
    body = b"".join(struct.pack("<Q", len(b)) + b for b in sized) + column
    return magic + hashlib.sha256(body).digest() + body


def expected_frame(key, cell, report, layout: str = "F8") -> bytes:
    """The frame ``put`` writes for ``report`` in the current layout,
    or (``layout="F7"``) the one format 7 wrote first: no telemetry
    section, the telemetry inside the header."""
    record = report_to_dict(report)
    del record["residual_history"]
    telemetry = record.pop("telemetry")
    if layout == "F7":
        record["telemetry"] = telemetry
    header = json.dumps(
        {
            "key": key,
            "cell": {"config": asdict(cell.config), "scheme": cell.scheme},
            "report": record,
        },
        sort_keys=True,
    ).encode()
    column = np.asarray(report.residual_history, dtype="<f8").tobytes()
    if layout == "F7":
        return frame_bytes(b"REPRO\x00F7", header, column)
    section = b"" if telemetry is None else json.dumps(telemetry).encode()
    return frame_bytes(b"REPRO\x00F8", header, section, column)


def stored_payload(store: ResultStore, key: str) -> bytes:
    """The payload ``key``'s row holds in ``store``."""
    (blob,) = store._db.execute(
        "SELECT payload FROM results WHERE key = ?", (key,)
    ).fetchone()
    return blob


def set_payload(store: ResultStore, key: str, blob: bytes) -> None:
    """Overwrite ``key``'s stored payload in place, as damage to the
    file would."""
    store._db.execute("UPDATE results SET payload = ? WHERE key = ?", (blob, key))
    store._db.commit()


#: The files a store may hold: its index and SQLite's WAL companions.
INDEX_FILES = {"index.db", "index.db-wal", "index.db-shm"}


def assert_reports_equal(a, b):
    assert a.scheme == b.scheme
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.final_relative_residual == b.final_relative_residual
    assert a.time_s == b.time_s
    assert a.energy_j == b.energy_j
    assert a.baseline_iters == b.baseline_iters
    np.testing.assert_array_equal(a.residual_history, b.residual_history)
    assert a.account.charges == b.account.charges
    assert a.rapl.log.phases == b.rapl.log.phases
    assert a.faults == b.faults
    assert a.traffic == b.traffic


class TestSerialize:
    def test_json_round_trip_is_exact(self, solved):
        _, report = solved
        data = json.loads(json.dumps(report_to_dict(report)))
        assert_reports_equal(report_from_dict(data), report)

    def test_multivictim_fault_round_trip(self, solved):
        from repro.faults.events import FaultEvent

        _, report = solved
        multi = replace(report, faults=[FaultEvent.multi(5, (2, 0, 3))])
        data = json.loads(json.dumps(report_to_dict(multi)))
        assert data["faults"][0]["victims"] == [2, 0, 3]
        assert data["faults"][0]["victim_rank"] == 2
        assert report_from_dict(data).faults == multi.faults

    def test_single_victim_wire_shape_has_no_victims_key(self, solved):
        """Single-victim events keep the pre-victim-set payload bytes;
        decoding normalizes them back to one-element victim sets."""
        _, report = solved
        data = report_to_dict(report)
        assert report.faults  # the fixture solve did inject faults
        assert all("victims" not in ev for ev in data["faults"])
        back = report_from_dict(json.loads(json.dumps(data)))
        assert all(e.victims == (e.victim_rank,) for e in back.faults)

    def test_unserializable_details_are_dropped_with_a_note(self, solved):
        _, report = solved
        report.details["weird"] = object()
        try:
            data = report_to_dict(report)
        finally:
            del report.details["weird"]
        assert "weird" not in data["details"]
        assert "weird" in data["details"]["_dropped"]


class TestKeying:
    def test_key_is_stable(self, solved):
        cell, _ = solved
        assert cell_key(cell) == cell_key(cell)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"n_faults": 3},
            {"nranks": 16},
            {"tol": 1e-6},
            {"cr_interval": "young"},
            {"scale": 0.5},
            {"engine": "analytic"},
            {"fault_scope": "node"},
        ],
    )
    def test_any_config_change_changes_the_key(self, solved, change):
        cell, _ = solved
        other = CampaignCell(replace(cell.config, **change), cell.scheme)
        assert cell_key(other) != cell_key(cell)

    def test_scheme_changes_the_key(self, solved):
        cell, _ = solved
        assert cell_key(CampaignCell(cell.config, "RD")) != cell_key(cell)


def literal_cell() -> CampaignCell:
    """Every field spelled out, so a changed default cannot move it."""
    return CampaignCell(
        ExperimentConfig(
            matrix="wathen100",
            nranks=8,
            n_faults=2,
            tol=1e-8,
            seed=3,
            scale=0.25,
            cr_interval=50,
            construct_tol=1e-6,
            max_iters=200_000,
            trace=True,
            engine="sim",
            fault_scope="process",
            backend="batched",
            victims_per_fault=1,
            preconditioner=None,
        ),
        "LI",
    )


@pytest.fixture()
def pinned_versions(monkeypatch):
    """The library versions are key material; pin them so a golden key
    is about the canonicalisation, not about this environment."""
    monkeypatch.setattr(store_module, "np", SimpleNamespace(__version__="1.26.4"))
    monkeypatch.setattr(store_module, "scipy", SimpleNamespace(__version__="1.11.4"))
    monkeypatch.setattr(store_module, "repro", SimpleNamespace(__version__="1.0.0"))


@pytest.fixture()
def hash_calls(monkeypatch):
    """Every ``_hash_material`` call made while the fixture is live."""
    calls = []
    real = store_module._hash_material

    def counting(store_format, config, scheme):
        calls.append((store_format, scheme))
        return real(store_format, config, scheme)

    monkeypatch.setattr(store_module, "_hash_material", counting)
    return calls


#: A valid other value for each string-typed config field.
_OTHER_STRING = {
    "matrix": "Andrews",
    "cr_interval": "young",
    "engine": "analytic",
    "fault_scope": "node",
    "backend": "loop",
    "preconditioner": "jacobi",
}


def _changed(name: str, value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2
    return _OTHER_STRING[name]  # KeyError: a new string field needs an entry


class TestIdentityInvariants:
    """What the cheaper canonicalisation and the per-object memo must
    leave exactly as they were (ISSUE 22)."""

    # The asdict-based material for literal_cell() under pinned_versions,
    # at store format 7 (payloads became frames; the material's shape is
    # format 6's).
    GOLDEN_KEY = "a81ac0fd33a2890d9907ae61cef3e4fb833ae436c633084a0665b76c1705d8f8"

    def test_golden_key_at_store_format_7(self, pinned_versions):
        assert STORE_FORMAT == 7
        assert cell_key(literal_cell()) == self.GOLDEN_KEY

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentConfig)]
    )
    def test_every_config_field_is_key_material(self, name):
        cell = literal_cell()
        value = getattr(cell.config, name)
        other = CampaignCell(
            replace(cell.config, **{name: _changed(name, value)}), cell.scheme
        )
        assert getattr(other.config, name) != value
        assert cell_key(other) != cell_key(cell)

    def test_flat_field_read_is_asdict(self):
        config = literal_cell().config
        flat = store_module._config_dict(config)
        assert flat == asdict(config)
        assert list(flat) == list(asdict(config))

    def test_memoised_key_is_the_from_scratch_key(self, hash_calls):
        cell = literal_cell()
        first = cell_key(cell)
        assert cell_key(cell) == first  # memo hit
        assert cell_correlation_id(cell) == first[:16]
        assert len(hash_calls) == 1  # hashed once for this object
        assert first == _hash_material(
            STORE_FORMAT, asdict(cell.config), cell.scheme
        )
        assert cell_key(literal_cell()) == first  # an equal cell, built apart
        assert len(hash_calls) == 2  # ... which hashed for itself: no table by value

    def test_key_survives_a_pickle_round_trip(self):
        cell = literal_cell()
        fresh = pickle.loads(pickle.dumps(cell))  # before any key was taken
        key = cell_key(cell)
        keyed = pickle.loads(pickle.dumps(cell))  # the memo travels along
        assert fresh == keyed == cell
        assert cell_key(fresh) == cell_key(keyed) == key
        assert key == _hash_material(
            STORE_FORMAT, asdict(keyed.config), keyed.scheme
        )

    def test_memo_is_not_part_of_the_cells_value(self):
        plain, keyed = literal_cell(), literal_cell()
        cell_key(keyed)
        keyed.label  # the label memo too
        assert set(keyed.__dict__) - set(plain.__dict__) == {"_key", "label"}
        assert plain == keyed and hash(plain) == hash(keyed)
        assert repr(plain) == repr(keyed)
        moved = replace(keyed, scheme="RD")  # a new object: hashes for itself
        assert cell_key(moved) != cell_key(keyed)

    def test_memoised_label_is_the_from_scratch_label(self):
        from_scratch = CampaignCell.label.func  # the undecorated function
        cell = literal_cell()
        label = cell.label
        assert cell.__dict__["label"] == label == from_scratch(literal_cell())
        assert cell.label is label  # built once for this object
        assert pickle.loads(pickle.dumps(cell)).__dict__["label"] == label
        moved = replace(cell, scheme="RD")  # a new object: labels for itself
        assert "label" not in moved.__dict__
        assert moved.label == from_scratch(moved) != label
        assert moved.label.endswith("/RD")

    def test_stored_payload_is_one_frame(self, store, solved, traced_solved):
        """The payload ``put`` stores, spelled out field by field: magic,
        SHA-256 of the rest, header length, the JSON record without its
        residual history and telemetry (``asdict`` config record), the
        telemetry section's length, the section (empty when untraced;
        unsorted, in ``telemetry_to_dict``'s order when traced), then the
        history's float64 bytes.  It is a BLOB in the cell's row, and
        the store writes no file beside its index."""
        frames = []
        for cell, report in (solved, traced_solved):
            key = store.put(cell, report)
            assert 8 * len(report.residual_history) > 0
            frames.append(stored_payload(store, key))
            assert frames[-1] == expected_frame(key, cell, report)
        untraced, traced = frames
        header_len = struct.unpack_from("<Q", untraced, 40)[0]
        assert struct.unpack_from("<Q", untraced, 48 + header_len)[0] == 0
        section_at = 56 + struct.unpack_from("<Q", traced, 40)[0]
        assert traced[section_at : section_at + 13] == b'{"timebase": '
        assert store._db.execute(
            "SELECT DISTINCT typeof(payload) FROM results"
        ).fetchall() == [("blob",)]
        assert {p.name for p in store.root.iterdir()} <= INDEX_FILES

    def test_entry_by_key_is_one_probe_and_one_read(
        self, store, solved, monkeypatch
    ):
        """One ``SELECT`` returns the row and its payload, and only a
        row that exists has a payload decoded."""
        cell, report = solved
        cells = [
            CampaignCell(replace(cell.config, seed=seed), cell.scheme)
            for seed in range(5)
        ]
        keys = [store.put(c, report, elapsed_s=float(i)) for i, c in enumerate(cells)]
        probes, reads = [], []
        row, decode = store._row, store_module._decode
        monkeypatch.setattr(store, "_row", lambda key: probes.append(key) or row(key))
        monkeypatch.setattr(
            store_module,
            "_decode",
            lambda key, blob: reads.append(key) or decode(key, blob),
        )
        entry = store.entry_by_key(keys[3])
        assert probes == reads == [keys[3]]
        assert (entry.key, entry.cell, entry.elapsed_s) == (keys[3], cells[3], 3.0)
        assert_reports_equal(entry.report, report)
        assert store.entry_by_key("f" * 64) is None
        assert store.entry_by_key("../../etc/passwd") is None
        assert probes == [keys[3], "f" * 64, "../../etc/passwd"]
        assert reads == [keys[3]]  # an unknown key is a probe, never a read
        assert (store.hits, store.misses) == (0, 0)


class _FullAtCommit:
    """A store's connection whose commit raises ``error`` (by default
    as a full disk does), after the statements before it ran."""

    def __init__(self, db, error=None):
        self._real, self.inserted = db, False
        self._error = error or sqlite3.OperationalError("database or disk is full")

    def execute(self, sql, *args):
        self.inserted |= sql.startswith("INSERT")
        return self._real.execute(sql, *args)

    def commit(self):
        raise self._error

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestStore:
    def test_miss_then_hit(self, store, solved):
        cell, report = solved
        assert store.get(cell) is None
        assert cell not in store
        store.put(cell, report, elapsed_s=1.5)
        assert cell in store
        assert_reports_equal(store.get(cell), report)

    def test_hit_carries_bookkeeping(self, store, solved):
        cell, report = solved
        store.put(cell, report, elapsed_s=1.5)
        entry = store.get_entry(cell)
        assert entry.elapsed_s == 1.5
        assert entry.key == cell_key(cell)

    def test_changed_config_misses(self, store, solved):
        cell, report = solved
        store.put(cell, report)
        other = CampaignCell(replace(cell.config, seed=99), cell.scheme)
        assert store.get(other) is None

    def test_persists_across_instances(self, tmp_path, solved):
        cell, report = solved
        with ResultStore(tmp_path / "c") as first:
            first.put(cell, report)
        with ResultStore(tmp_path / "c") as second:
            assert_reports_equal(second.get(cell), report)

    def test_missing_payload_heals_to_a_miss(self, store, solved):
        cell, report = solved
        key = store.put(cell, report)
        set_payload(store, key, b"")
        assert store.get(cell) is None
        assert len(store) == 0  # stale row was dropped

    def test_len_and_stats(self, store, solved):
        cell, report = solved
        assert len(store) == 0
        store.put(cell, report, elapsed_s=2.0)
        assert len(store) == 1
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["compute_seconds_banked"] == 2.0

    def test_stats_report_disk_bytes_and_lookup_counters(self, store, solved):
        cell, report = solved
        assert store.stats()["payload_bytes"] == 0
        assert store.get(cell) is None  # one miss
        store.put(cell, report)
        assert store.get(cell) is not None  # one hit
        stats = store.stats()
        payload = stored_payload(store, cell_key(cell))
        assert stats["payload_bytes"] == store.payload_bytes() == len(payload) > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_clear(self, store, solved):
        cell, report = solved
        store.put(cell, report)
        store.clear()
        assert len(store) == 0
        assert store.get(cell) is None

    def test_a_failed_write_leaves_no_temp_file_and_no_row(
        self, store, solved, monkeypatch
    ):
        """Disk full at the commit, the row and its frame already
        written into the transaction: all of it is rolled back, the
        error surfaces, nothing is left beside the index, and the next
        put of the cell is served."""
        cell, report = solved
        monkeypatch.setattr(store, "_db", _FullAtCommit(store._db))
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            store.put(cell, report)
        assert store._db.inserted  # the row was written, then rolled back
        monkeypatch.undo()
        assert {p.name for p in store.root.iterdir()} <= INDEX_FILES
        assert store._row(cell_key(cell)) is None
        with sqlite3.connect(store.root / "index.db") as other:
            assert other.execute("SELECT COUNT(*) FROM results").fetchone() == (0,)
        assert store.get(cell) is None
        assert store.overwrites == 0
        store.put(cell, report)
        assert_reports_equal(store.get(cell), report)

    def test_overwrites_are_counted(self, store, solved):
        cell, report = solved
        assert store.stats()["overwrites"] == 0
        store.put(cell, report)
        assert store.stats()["overwrites"] == 0
        store.put(cell, report)  # same key again: an overwrite
        store.put(cell, report)
        assert store.overwrites == 2
        assert store.stats()["overwrites"] == 2
        assert len(store) == 1


def make_manifest(run_id: str, name: str = "m", finished_at: float = 2000.0):
    from repro.campaign.manifest import ManifestCell, RunManifest

    return RunManifest(
        run_id=run_id,
        name=name,
        workers=2,
        started_at=1000.0,
        finished_at=finished_at,
        wall_s=finished_at - 1000.0,
        counters={"cells": 1, "ran": 1},
        cells=(
            ManifestCell(
                label="wathen100/r8/f2/x0.25/LI", cell_id="a" * 16,
                scheme="LI", status="ran", compute_s=1.0,
            ),
        ),
    )


class TestManifestPersistence:
    def test_round_trips_through_the_store(self, store):
        manifest = make_manifest("feedbeeffeedbeef")
        store.put_manifest(manifest)
        assert store.get_manifest("feedbeeffeedbeef") == manifest

    def test_missing_run_id_is_none(self, store):
        assert store.get_manifest("absent") is None
        assert store.latest_manifest() is None

    def test_latest_wins_by_finish_time(self, store):
        store.put_manifest(make_manifest("a" * 16, finished_at=2000.0))
        store.put_manifest(make_manifest("b" * 16, finished_at=3000.0))
        assert store.latest_manifest().run_id == "b" * 16
        listed = store.manifests()
        assert [run_id for run_id, _, _ in listed] == ["b" * 16, "a" * 16]

    def test_rewriting_a_run_id_replaces_it(self, store):
        store.put_manifest(make_manifest("a" * 16, name="first"))
        store.put_manifest(make_manifest("a" * 16, name="second"))
        assert store.get_manifest("a" * 16).name == "second"
        assert len(store.manifests()) == 1

    def test_manifests_survive_reopen_and_clear_removes_them(
        self, tmp_path, solved
    ):
        with ResultStore(tmp_path / "cache") as store:
            store.put_manifest(make_manifest("a" * 16))
        with ResultStore(tmp_path / "cache") as store:
            assert store.get_manifest("a" * 16) is not None
            store.clear()
            assert store.get_manifest("a" * 16) is None

    def test_manifest_writes_never_touch_payloads(self, store, solved):
        cell, report = solved
        key = store.put(cell, report)
        before = stored_payload(store, key)
        store.put_manifest(make_manifest("a" * 16))
        assert stored_payload(store, key) == before
        assert store.stats()["overwrites"] == 0


class TestConcurrency:
    """The serving tier reads and writes from worker threads; two CLI
    processes may share one store.  Neither may see 'database is locked'
    or a torn payload."""

    N_THREADS = 8
    N_READS = 5

    def _hammer(self, store_for_thread, cell, report, errors):
        def work(seed):
            try:
                mine = CampaignCell(replace(cell.config, seed=seed), cell.scheme)
                s = store_for_thread(seed)
                assert s.put(mine, report) == cell_key(mine)
                for _ in range(self.N_READS):
                    got = s.get(mine)
                    assert got is not None
                    assert got.iterations == report.iterations
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_threads_share_one_connection(self, store, solved):
        cell, report = solved
        errors = []
        self._hammer(lambda seed: store, cell, report, errors)
        assert errors == []
        assert len(store) == self.N_THREADS
        assert store.hits == self.N_THREADS * self.N_READS

    def test_two_instances_share_one_store_on_disk(self, tmp_path, solved):
        """Separate connections on one directory — WAL + busy_timeout
        territory, the cross-process sharing mode."""
        cell, report = solved
        with ResultStore(tmp_path / "c") as a, ResultStore(tmp_path / "c") as b:
            errors = []
            self._hammer(
                lambda seed: a if seed % 2 == 0 else b, cell, report, errors
            )
            assert errors == []
            assert len(a) == len(b) == self.N_THREADS
            # every cell is visible through both connections
            for seed in range(self.N_THREADS):
                mine = CampaignCell(
                    replace(cell.config, seed=seed), cell.scheme
                )
                assert mine in a and mine in b


#: Stands in for a key no cell has now, such as an older store format
#: gave it: a row under any key but ``cell_key(cell)`` is listable and
#: never served for the cell.
FOREIGN_KEY = "f2" * 32


class TestLockedStore:
    """A write lock another connection holds past ``BUSY_TIMEOUT_S`` is
    a typed error, not a stall, and leaves no row behind."""

    BUSY_S = 0.2

    @pytest.fixture
    def locked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_S", self.BUSY_S)
        with ResultStore(tmp_path / "c") as store:
            holder = sqlite3.connect(tmp_path / "c" / "index.db", isolation_level=None)
            holder.execute("BEGIN IMMEDIATE")  # the write lock
            yield store, holder
            holder.close()

    def test_put_raises_store_locked_and_the_cell_stays_a_miss(
        self, locked, solved
    ):
        store, holder = locked
        cell, report = solved
        t0 = time.perf_counter()
        with pytest.raises(StoreLockedError, match="locked") as exc:
            store.put(cell, report)
        assert self.BUSY_S * 0.9 <= time.perf_counter() - t0 < 2.0
        assert isinstance(exc.value, sqlite3.OperationalError)
        assert store.get(cell) is None  # a miss, with the lock still held
        holder.execute("ROLLBACK")
        assert store.get(cell) is None  # and after it is let go
        assert store.stats()["overwrites"] == 0
        # the store is usable once the lock is free
        store.put(cell, report)
        assert_reports_equal(store.get(cell), report)

    def test_every_write_is_typed(self, locked, solved):
        store, holder = locked
        with pytest.raises(StoreLockedError):
            store.put_manifest(make_manifest("b" * 16))
        with pytest.raises(StoreLockedError):
            store.clear()
        holder.execute("ROLLBACK")
        assert store.get_manifest("b" * 16) is None
        store.put_manifest(make_manifest("b" * 16))
        assert store.get_manifest("b" * 16) is not None


def _write_foreign_entry(store, cell, report) -> bytes:
    """Store a sound frame of this cell under :data:`FOREIGN_KEY`, the
    key its header records; returns the frame."""
    frame = expected_frame(FOREIGN_KEY, cell, report)
    entry = StoreEntry(FOREIGN_KEY, cell, report, 1.0, time.time())
    with store._writing() as db:
        store._index(db, FOREIGN_KEY, entry, frame)
    return frame


class TestMigration:
    """A cell has one key: a row under another key (an older format's,
    say) is listable, never served for the cell."""

    def test_rows_under_other_keys_are_never_a_cell_hit(
        self, store, solved, monkeypatch
    ):
        cell, report = solved
        _write_foreign_entry(store, cell, report)
        probes = []
        row = store._row
        monkeypatch.setattr(store, "_row", lambda key: probes.append(key) or row(key))
        assert store.get_entry(cell) is None
        assert store.get(cell) is None
        assert cell not in store
        # a miss costs exactly one index probe, under the cell's one key
        assert probes == [cell_key(cell)] * 3
        assert store.misses == 3 and store.hits == 0
        # ...while the other row stays reachable under the key it has
        assert_reports_equal(store.entry_by_key(FOREIGN_KEY).report, report)

    def test_v3_write_wins_over_legacy_fallback(self, store, solved):
        """Once a cell is computed and stored under its own key, the
        fresh entry is served (the other row remains, unreferenced)."""
        cell, report = solved
        _write_foreign_entry(store, cell, report)
        store.put(cell, report, elapsed_s=9.0)
        entry = store.get_entry(cell)
        assert entry.key == cell_key(cell)
        assert entry.elapsed_s == 9.0

    def test_legacy_payload_files_are_listed_sized_and_cleared(
        self, store, solved
    ):
        cell, report = solved
        foreign = _write_foreign_entry(store, cell, report)
        key = store.put(cell, report)
        assert sorted(e.key for e in store.entries()) == sorted([key, FOREIGN_KEY])
        assert store.payload_bytes() == len(stored_payload(store, key)) + len(
            foreign
        )
        store.clear()
        assert list(store.entries()) == [] and store.payload_bytes() == 0

    def test_analytic_cells_never_hit_legacy_rows(self, store, solved):
        cell, report = solved
        _write_foreign_entry(store, cell, report)
        analytic = CampaignCell(
            replace(cell.config, engine="analytic"), cell.scheme
        )
        assert store.get(analytic) is None


class TestMixedEngines:
    def test_mixed_engine_entries_round_trip_bit_exactly(self, store, solved):
        cell, sim_report = solved
        ana_config = replace(cell.config, engine="analytic")
        ana_exp = Experiment(ana_config)
        ana_cell = CampaignCell(ana_config, "LI")
        ana_report = ana_exp.run("LI")
        store.put(cell, sim_report)
        store.put(ana_cell, ana_report)
        by_engine = {e.cell.config.engine: e for e in store.entries()}
        assert set(by_engine) == {"sim", "analytic"}
        assert_reports_equal(by_engine["sim"].report, sim_report)
        assert_reports_equal(by_engine["analytic"].report, ana_report)
        assert by_engine["analytic"].report.details["engine"] == "analytic"
        assert by_engine["analytic"].cell.config == ana_config


#: Byte offsets inside a frame, after the 8-byte magic: digest, header
#: length, header.
_DIGEST_AT, _LENGTH_AT, _HEADER_AT = 8, 40, 48


def _flip(blob: bytes, offset: int) -> bytes:
    damaged = bytearray(blob)
    damaged[offset] ^= 0x01
    return bytes(damaged)


def _section_at(blob: bytes) -> int:
    """The offset of the telemetry section's first byte."""
    header_len = struct.unpack_from("<Q", blob, _LENGTH_AT)[0]
    return _HEADER_AT + header_len + 8


def _column_at(blob: bytes) -> int:
    at = _section_at(blob)
    return at + struct.unpack_from("<Q", blob, at - 8)[0]


def _mid_section(blob: bytes) -> int:
    """The offset of the telemetry section's middle byte."""
    return (_section_at(blob) + _column_at(blob)) // 2


def _mid_column(blob: bytes) -> int:
    """The offset of the column's middle float."""
    n_floats = (len(blob) - _column_at(blob)) // 8
    return _column_at(blob) + 8 * (n_floats // 2)


def _pre7_json(blob: bytes) -> bytes:
    """The JSON payload a format-6 store wrote for the frame's record."""
    payload = store_module._unframe(blob)
    report = payload["report"]
    report["residual_history"] = report["residual_history"].tolist()
    if "telemetry" in report:
        report["telemetry"] = telemetry_to_dict(report["telemetry"])
    return json.dumps(payload, sort_keys=True).encode()


def _f7_frame(blob: bytes) -> bytes:
    """The frame format 7 first wrote for the frame's record: no
    telemetry section, the telemetry inside the header."""
    entry = store_module.entry_from_payload(store_module._unframe(blob))
    return expected_frame(entry.key, entry.cell, entry.report, layout="F7")


def _old_layout_path(blob: bytes) -> str:
    """What an old-layout store's row held in place of the frame: the
    path of the frame's file under the store's root, as TEXT."""
    key = store_module._unframe(blob)["key"]
    return f"payloads/{key[:2]}/{key}.frame"


#: Each way a stored frame can be damaged: ``(frame, another cell's
#: frame) -> the damaged payload``.
DAMAGE = {
    "header_byte_flipped": lambda b, _: _flip(b, (_HEADER_AT + _section_at(b)) // 2),
    "telemetry_byte_flipped": lambda b, _: _flip(b, _mid_section(b)),
    "first_telemetry_byte_flipped": lambda b, _: _flip(b, _section_at(b)),
    "truncated_mid_telemetry": lambda b, _: b[: _mid_section(b)],
    "column_byte_flipped": lambda b, _: _flip(b, _mid_column(b) + 3),
    "digest_byte_flipped": lambda b, _: _flip(b, _DIGEST_AT + 5),
    # cut on a float boundary, so only the digest can tell
    "truncated_mid_column": lambda b, _: b[: _mid_column(b)],
    "zero_length": lambda b, _: b"",
    # a sound frame, but the FF cell's: its digest checks out
    "other_cells_frame_copied_over": lambda _, other: other,
    "pre7_json_renamed_to_frame_path": lambda b, _: _pre7_json(b),
    "f7_frame_of_the_same_cell": lambda b, _: _f7_frame(b),
    "old_layout_path_text": lambda b, _: _old_layout_path(b),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A finished traced one-scheme campaign (FF + LI), its store
    closed: every frame has a header, a telemetry section and a column.
    Also the LI cell, its report, its frame and the FF cell's frame."""
    from repro.campaign import run_campaign
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(
        name="damage",
        matrices=("wathen100",),
        schemes=("LI",),
        nranks=(8,),
        fault_loads=(2,),
        scale=0.25,
        trace=True,
    )
    root = tmp_path_factory.mktemp("pristine")
    with ResultStore(root) as store:
        result = run_campaign(spec, store=store)
        assert result.n_ran == 2
        (cell,) = [c for c in spec.cells() if c.scheme == "LI"]
        (ff,) = [c for c in spec.cells() if c.scheme == "FF"]
        frame = stored_payload(store, cell_key(cell))
        other = stored_payload(store, cell_key(ff))
    return spec, root, cell, result[cell].report, frame, other


class TestDamagedPayloads:
    """A damaged payload is a miss — its row dropped, the cell recomputed
    bitwise — never a wrong cached answer."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_a_miss_and_the_rerun_restores_the_frame(
        self, pristine, tmp_path, damage
    ):
        from repro.campaign import run_campaign

        spec, root, cell, original, frame, other = pristine
        shutil.copytree(root, tmp_path / "cache")
        with ResultStore(tmp_path / "cache") as store:
            key = cell_key(cell)
            damaged = DAMAGE[damage](frame, other)
            assert damaged != frame
            set_payload(store, key, damaged)
            assert stored_payload(store, key) == damaged
            assert store.get_entry(cell) is None
            assert (store.hits, store.misses) == (0, 1)
            assert store._row(key) is None  # the row is gone
            result = run_campaign(spec, store=store)
            assert (result.n_ran, result.n_cached, result.n_failed) == (1, 1, 0)
            assert result[cell].status == "ran"
            assert report_to_dict(result[cell].report) == report_to_dict(original)
            assert stored_payload(store, key) == frame

    def test_a_flipped_bit_anywhere_in_a_frame_is_refused(self, store, solved):
        cell, report = solved
        frame = stored_payload(store, store.put(cell, report))
        assert store_module._unframe(frame) is not None
        for offset in range(len(frame)):
            damaged = bytearray(frame)
            damaged[offset] ^= 0x80
            assert store_module._unframe(bytes(damaged)) is None, offset

    def test_a_pre7_payload_is_neither_listed_nor_served(self, store, solved):
        cell, report = solved
        key = store.put(cell, report)
        set_payload(store, key, _pre7_json(stored_payload(store, key)))
        assert list(store.entries()) == []  # not listed ...
        assert store._row(key) is not None  # ... though its row is kept
        assert store.get_entry(cell) is None  # not served ...
        assert store._row(key) is None  # ... and the lookup dropped its row


#: Histories no solve produces, whose bits must survive the frame anyway.
_EDGE_BITS = [
    np.array([], dtype=np.uint64),
    np.array([-0.0, np.inf, -np.inf, 5e-324, 2.2250738585072004e-308]).view(
        np.uint64
    ),
    np.array(
        [0x7FF8000000000001, 0x7FF0000000000001, 0xFFF80000DEADBEEF],
        dtype=np.uint64,
    ),
]


class TestColumnRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(bits=hnp.arrays(np.uint64, st.integers(0, 64)))
    @example(bits=_EDGE_BITS[0])
    @example(bits=_EDGE_BITS[1])
    @example(bits=_EDGE_BITS[2])
    def test_any_float64_history_round_trips_bitwise(self, store, solved, bits):
        cell, report = solved
        store.put(cell, replace(report, residual_history=bits.view(np.float64)))
        history = store.get(cell).residual_history
        assert history.dtype == np.float64
        assert history.flags.writeable and history.flags.owndata
        np.testing.assert_array_equal(history.view(np.uint64), bits)


class TestTelemetrySection:
    """A traced report read from a frame holds its telemetry as the
    frame's section, built on the first read of a field."""

    @pytest.fixture()
    def read(self, store, traced_solved):
        cell, report = traced_solved
        store.put(cell, report)
        return store.get(cell)

    def test_encoding_an_unbuilt_bundle_builds_nothing(
        self, read, traced_solved, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            export_module, "telemetry_from_dict", lambda d: built.append(d)
        )
        tel = read.details["telemetry"]
        assert tel.stored_json is not None
        computed = telemetry_to_dict(traced_solved[1].details["telemetry"])
        assert json.dumps(telemetry_to_dict(tel)) == json.dumps(computed)
        assert json.dumps(report_to_dict(read)["telemetry"]) == json.dumps(computed)
        assert built == [] and tel.stored_json is not None

    def test_its_timebase_is_the_stored_one(self, read):
        tel = read.details["telemetry"]
        assert tel.timebase == "sim"  # not a class default read in its place
        assert tel.stored_json is None

    def test_it_equals_the_eagerly_built_bundle(self, read, traced_solved):
        eager = telemetry_from_dict(
            telemetry_to_dict(traced_solved[1].details["telemetry"])
        )
        assert read.details["telemetry"] == eager
        assert eager == read.details["telemetry"]
        assert read.details["telemetry"].spans.spans == eager.spans.spans

    def test_a_pickle_carries_it_unbuilt(self, read):
        tel = read.details["telemetry"]
        again = pickle.loads(pickle.dumps(read, pickle.HIGHEST_PROTOCOL))
        copied = again.details["telemetry"]
        assert copied.stored_json == tel.stored_json is not None
        assert copied == tel
        assert copied.stored_json is None and tel.stored_json is None
        assert report_to_dict(again) == report_to_dict(read)

    def test_annotating_it_stamps_the_root_span_through_a_store_trip(
        self, store, read, traced_solved
    ):
        cell, _ = traced_solved
        annotate_root_span(read, "request_ids", "rid-1")
        assert read.details["telemetry"].stored_json is None

        def root_attrs(report):
            spans = report.details["telemetry"].spans.spans
            (root,) = [s for s in spans if s.name == "solve" and s.depth == 0]
            return dict(root.attrs)

        assert root_attrs(read)["request_ids"] == "rid-1"
        store.put(cell, read)
        assert root_attrs(store.get(cell))["request_ids"] == "rid-1"

    def test_threads_reading_at_once_share_one_build(
        self, store, traced_solved
    ):
        """Threads that build one bundle at once all get the objects it
        keeps: a lost update would hand one of them a copy, whose
        mutations (a root-span stamp) the bundle would never see."""
        cell, report = traced_solved
        store.put(cell, report)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                tel = store.get(cell).details["telemetry"]
                barrier = threading.Barrier(6)
                seen = []

                def read(name):
                    barrier.wait(timeout=10)
                    seen.append((name, getattr(tel, name)))

                threads = [
                    threading.Thread(target=read, args=(name,))
                    for name in ("events", "spans", "metrics") * 2
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert len(seen) == 6
                assert all(obj is getattr(tel, name) for name, obj in seen)
                assert tel.stored_json is None
        finally:
            sys.setswitchinterval(interval)


def _seeded(cell: CampaignCell, seed: int) -> CampaignCell:
    return CampaignCell(replace(cell.config, seed=seed), cell.scheme)


#: Puts cells seeded from argv[3] on into the store at argv[1], printing
#: each seed once its put returned; (cell, report) pickled at argv[2].
_WRITER = """
import pickle, sys
from dataclasses import replace
from repro.campaign.spec import CampaignCell
from repro.campaign.store import ResultStore

with open(sys.argv[2], "rb") as f:
    cell, report = pickle.load(f)
store = ResultStore(sys.argv[1])
for seed in range(int(sys.argv[3]), 10**9):
    store.put(CampaignCell(replace(cell.config, seed=seed), cell.scheme), report)
    print(seed, flush=True)
"""


class TestAtomicPut:
    """A put commits its row and its frame together, or neither."""

    def test_a_put_interrupted_before_its_commit_leaves_no_row(
        self, store, solved, monkeypatch
    ):
        """Not only a failed SQLite call: anything that escapes the
        write rolls it back, so no later commit can pick the row up."""
        cell, report = solved
        monkeypatch.setattr(
            store, "_db", _FullAtCommit(store._db, error=KeyboardInterrupt())
        )
        with pytest.raises(KeyboardInterrupt):
            store.put(cell, report)
        assert store._db.inserted
        monkeypatch.undo()
        assert store._row(cell_key(cell)) is None
        store.put_manifest(make_manifest("a" * 16))  # the next commit
        with sqlite3.connect(store.root / "index.db") as other:
            assert other.execute("SELECT COUNT(*) FROM results").fetchone() == (0,)

    def test_a_writer_killed_mid_put_leaves_whole_rows(
        self, tmp_path, traced_solved
    ):
        cell, report = traced_solved
        fixture = tmp_path / "cell.pickle"
        fixture.write_bytes(pickle.dumps((cell, report)))
        root = tmp_path / "cache"
        env = {**os.environ, "PYTHONPATH": str(Path(store_module.__file__).parents[2])}
        delays = np.random.default_rng(45).uniform(0.0, 0.004, size=3)
        total = 0
        for round_, delay in enumerate(delays):
            first = 1000 * round_
            child = subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(root), str(fixture), str(first)],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            try:
                for _ in range(5):
                    assert child.stdout.readline(), "the writer died"
                time.sleep(delay)
            finally:
                child.send_signal(signal.SIGKILL)
                out, _ = child.communicate()
            returned = 5 + len(out.split())
            with ResultStore(root) as store:
                assert store._db.execute("PRAGMA integrity_check").fetchone() == (
                    "ok",
                )
                # every put that returned is there, and at most the one
                # the kill cut short besides
                seeds = range(first, first + returned + 1)
                held = [s for s in seeds if store._row(cell_key(_seeded(cell, s)))]
                assert held[:returned] == list(seeds[:returned])
                assert len(held) in (returned, returned + 1)
                # and every row is whole: served, bit for bit
                for seed in held:
                    entry = store.get_entry(_seeded(cell, seed))
                    assert_reports_equal(entry.report, report)
                    assert telemetry_to_dict(
                        entry.report.details["telemetry"]
                    ) == telemetry_to_dict(report.details["telemetry"])
                assert store.misses == 0
                total += len(held)
                assert len(store) == total
