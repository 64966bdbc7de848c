"""Result store: hashing, round-trips, hits and misses, self-healing."""

import dataclasses
import hashlib
import json
import pickle
import shutil
import struct
import threading
from dataclasses import asdict, replace
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
    _hash_material,
    cell_key,
)
from repro.harness.experiment import Experiment, ExperimentConfig


@pytest.fixture(scope="module")
def solved():
    """One real faulty solve to push through the store."""
    exp = Experiment(
        ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
    )
    cell = CampaignCell(exp.config, "LI")
    return cell, exp.run("LI")


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
        assert plain == keyed and hash(plain) == hash(keyed)
        assert repr(plain) == repr(keyed)
        moved = replace(keyed, scheme="RD")  # a new object: hashes for itself
        assert cell_key(moved) != cell_key(keyed)

    def test_stored_payload_is_one_frame(self, store, solved):
        """The file ``put`` writes, spelled out field by field: magic,
        SHA-256 of the rest, header length, the JSON record without its
        residual history (``asdict`` config record), then the history's
        float64 bytes."""
        cell, report = solved
        key = store.put(cell, report)
        record = report_to_dict(report)
        del record["residual_history"]
        header = json.dumps(
            {
                "key": key,
                "cell": {"config": asdict(cell.config), "scheme": cell.scheme},
                "report": record,
            },
            sort_keys=True,
        ).encode()
        column = np.asarray(report.residual_history, dtype="<f8").tobytes()
        assert len(column) == 8 * len(report.residual_history) > 0
        body = struct.pack("<Q", len(header)) + header + column
        expected = b"REPRO\x00F7" + hashlib.sha256(body).digest() + body
        path = store._payload_path(key)
        assert path.name == f"{key}.frame"
        assert path.read_bytes() == expected
        assert store.payload_files() == [path]

    def test_entry_by_key_is_one_probe_and_one_read(self, store, solved):
        cell, report = solved
        cells = [
            CampaignCell(replace(cell.config, seed=seed), cell.scheme)
            for seed in range(5)
        ]
        keys = [store.put(c, report, elapsed_s=float(i)) for i, c in enumerate(cells)]
        reads = []
        real = store._read_payload
        store._read_payload = lambda key: reads.append(key) or real(key)
        entry = store.entry_by_key(keys[3])
        assert reads == [keys[3]]
        assert (entry.key, entry.cell, entry.elapsed_s) == (keys[3], cells[3], 3.0)
        assert_reports_equal(entry.report, report)
        assert store.entry_by_key("f" * 64) is None
        assert store.entry_by_key("../../etc/passwd") is None
        assert reads == [keys[3]]  # an unknown key never reaches the disk
        assert (store.hits, store.misses) == (0, 0)


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
        store._payload_path(key).unlink()
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
        payload = store._payload_path(cell_key(cell))
        assert stats["payload_bytes"] == payload.stat().st_size > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_clear(self, store, solved):
        cell, report = solved
        store.put(cell, report)
        store.clear()
        assert len(store) == 0
        assert store.get(cell) is None

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
        heartbeat_interval_s=1.0,
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
        store.put(cell, report)
        payload = store._payload_path(cell_key(cell))
        before = payload.read_bytes()
        store.put_manifest(make_manifest("a" * 16))
        assert payload.read_bytes() == before
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


#: Stands in for the key a format-2 store gave the cell: nothing can
#: compute that any more, and nothing needs to — a row under any key
#: but ``cell_key(cell)`` is listable and never served.
V2_KEY = "f2" * 32


def _write_v2_entry(store, cell, report):
    """Hand-build the entry a format-2 store would hold for this cell:
    keyed by another hash, a ``<key>.json`` payload whose config lacks
    the post-v2 fields."""
    import time

    key = V2_KEY
    config = asdict(cell.config)
    del config["engine"], config["fault_scope"]
    path = store._payload_path(key).with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "key": key,
        "cell": {"config": config, "scheme": cell.scheme},
        "report": report_to_dict(report),
    }
    path.write_text(json.dumps(payload, sort_keys=True))
    cfg = cell.config
    store._db.execute(
        "INSERT OR REPLACE INTO results VALUES "
        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            key, cfg.matrix, cell.scheme, cfg.nranks, cfg.n_faults, cfg.seed,
            cfg.scale, str(cfg.cr_interval), cfg.tol, int(report.converged),
            report.iterations, report.time_s, report.energy_j, 1.0,
            time.time(), str(path.relative_to(store.root)),
        ),
    )
    store._db.commit()
    return key


class TestMigration:
    """A cell has one key: rows from older store formats are listable,
    never served."""

    def test_rows_under_other_keys_are_never_a_cell_hit(
        self, store, solved, monkeypatch
    ):
        cell, report = solved
        _write_v2_entry(store, cell, report)
        probes = []
        index_row = store._index_row
        monkeypatch.setattr(
            store, "_index_row", lambda key: probes.append(key) or index_row(key)
        )
        assert store.get_entry(cell) is None
        assert store.get(cell) is None
        assert cell not in store
        # a miss costs exactly one index probe, under the cell's one key
        assert probes == [cell_key(cell)] * 3
        assert store.misses == 3 and store.hits == 0
        # ...while the old row stays reachable under the key it has
        assert_reports_equal(store.entry_by_key(V2_KEY).report, report)

    def test_v2_payload_config_gains_defaults_in_entries(self, store, solved):
        cell, report = solved
        _write_v2_entry(store, cell, report)
        (entry,) = list(store.entries())
        assert entry.cell.config.engine == "sim"
        assert entry.cell.config.fault_scope == "process"
        assert entry.cell.config == cell.config

    def test_v3_write_wins_over_legacy_fallback(self, store, solved):
        """Once a cell is recomputed and stored under its own key, the
        fresh entry is served (the old row remains, unreferenced)."""
        cell, report = solved
        _write_v2_entry(store, cell, report)
        store.put(cell, report, elapsed_s=9.0)
        entry = store.get_entry(cell)
        assert entry.key == cell_key(cell)
        assert entry.elapsed_s == 9.0

    def test_legacy_payload_files_are_listed_sized_and_cleared(
        self, store, solved
    ):
        cell, report = solved
        _write_v2_entry(store, cell, report)
        frame = store._payload_path(store.put(cell, report))
        legacy = store._payload_path(V2_KEY).with_suffix(".json")
        frame.with_suffix(".tmp.1.2").write_bytes(b"half-written")
        assert store.payload_files() == sorted([frame, legacy])
        assert store.payload_bytes() == (
            frame.stat().st_size + legacy.stat().st_size
        )
        store.clear()
        assert store.payload_files() == []

    def test_analytic_cells_never_hit_legacy_rows(self, store, solved):
        cell, report = solved
        _write_v2_entry(store, cell, report)
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


def _flip(path, offset: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def _column_at(path) -> int:
    header_len = struct.unpack_from("<Q", path.read_bytes(), _LENGTH_AT)[0]
    return _HEADER_AT + header_len


def _mid_column(path) -> int:
    """The offset of the column's middle float."""
    n_floats = (path.stat().st_size - _column_at(path)) // 8
    return _column_at(path) + 8 * (n_floats // 2)


def _pre7_json_renamed(path) -> None:
    """The JSON a format-6 store wrote for the same record, renamed onto
    the frame path."""
    payload = store_module._unframe(path.read_bytes())
    report = payload["report"]
    report["residual_history"] = report["residual_history"].tolist()
    legacy = path.with_suffix(".json")
    legacy.write_text(json.dumps(payload, sort_keys=True))
    legacy.replace(path)


#: Each way a stored frame can be damaged on disk.
DAMAGE = {
    "header_byte_flipped": lambda p: _flip(p, (_HEADER_AT + _column_at(p)) // 2),
    "column_byte_flipped": lambda p: _flip(p, _mid_column(p) + 3),
    "digest_byte_flipped": lambda p: _flip(p, _DIGEST_AT + 5),
    # cut on a float boundary, so only the digest can tell
    "truncated_mid_column": lambda p: p.write_bytes(
        p.read_bytes()[: _mid_column(p)]
    ),
    "zero_length": lambda p: p.write_bytes(b""),
    "pre7_json_renamed_to_frame_path": _pre7_json_renamed,
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A finished one-scheme campaign (FF + LI), its store closed."""
    from repro.campaign import run_campaign
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(
        name="damage",
        matrices=("wathen100",),
        schemes=("LI",),
        nranks=(8,),
        fault_loads=(2,),
        scale=0.25,
    )
    root = tmp_path_factory.mktemp("pristine")
    with ResultStore(root) as store:
        result = run_campaign(spec, store=store)
        assert result.n_ran == 2
        (cell,) = [c for c in spec.cells() if c.scheme == "LI"]
        frame = store._payload_path(cell_key(cell)).read_bytes()
    return spec, root, cell, result[cell].report, frame


class TestDamagedPayloads:
    """A damaged payload is a miss — its row dropped, the cell recomputed
    bitwise — never a wrong cached answer."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_a_miss_and_the_rerun_restores_the_frame(
        self, pristine, tmp_path, damage
    ):
        from repro.campaign import run_campaign

        spec, root, cell, original, frame = pristine
        shutil.copytree(root, tmp_path / "cache")
        with ResultStore(tmp_path / "cache") as store:
            key = cell_key(cell)
            path = store._payload_path(key)
            DAMAGE[damage](path)
            assert path.read_bytes() != frame
            assert store.get_entry(cell) is None
            assert (store.hits, store.misses) == (0, 1)
            assert store._index_row(key) is None  # the row is gone
            result = run_campaign(spec, store=store)
            assert (result.n_ran, result.n_cached, result.n_failed) == (1, 1, 0)
            assert result[cell].status == "ran"
            assert report_to_dict(result[cell].report) == report_to_dict(original)
            assert path.read_bytes() == frame

    def test_a_flipped_bit_anywhere_in_a_frame_is_refused(self, store, solved):
        cell, report = solved
        frame = store._payload_path(store.put(cell, report)).read_bytes()
        assert store_module._unframe(frame) is not None
        for offset in range(len(frame)):
            damaged = bytearray(frame)
            damaged[offset] ^= 0x80
            assert store_module._unframe(bytes(damaged)) is None, offset

    def test_a_pre7_payload_under_the_frame_path_stays_listable(
        self, store, solved
    ):
        cell, report = solved
        path = store._payload_path(store.put(cell, report))
        _pre7_json_renamed(path)
        (entry,) = list(store.entries())  # listed ...
        assert_reports_equal(entry.report, report)
        assert store.get_entry(cell) is None  # ... never served
        assert list(store.entries()) == []  # and the lookup dropped its row


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
