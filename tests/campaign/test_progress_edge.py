"""Progress and fleet edge cases: empty, all-cached, all-failed, hung.

The satellite coverage for the observability tentpole: degenerate
campaign shapes must render (not crash), the ``--json-progress`` stream
must round-trip through the schema with exactly one terminal line per
cell, and the synthetic pathologies — a retry storm, a cache stampede —
must surface as findings through ``repro doctor``.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import (
    FleetMonitor,
    ResultStore,
    cell_event_from_line,
    render_fleet,
    run_campaign,
)
from repro.cli import main
from tests.campaign.helpers import FLAKY_DIR_ENV, always_raising_worker

CAMPAIGN_ARGS = [
    "campaign",
    "--matrices", "wathen100",
    "--schemes", "RD",
    "--ranks", "8",
    "--faults", "2",
    "--scale", "0.25",
    "--quiet",
]


def tiny_manifest(store_root):
    with ResultStore(store_root) as store:
        manifest = store.latest_manifest()
    assert manifest is not None
    return manifest


class TestEmptyCampaign:
    """A monitor that never sees a cell must still render and persist."""

    def test_snapshot_and_frame_degrade_cleanly(self):
        mon = FleetMonitor(workers=2)
        mon.begin(total=0, name="empty")
        assert mon.done == 0 and mon.eta_s() is None
        frame = render_fleet(mon.manifest(), mon.eta_s(), mon.busy())
        assert "0/0 (0%)" in frame and "eta --" in frame

    def test_manifest_is_empty_but_well_formed(self):
        from repro.campaign import manifest_from_doc, manifest_to_doc

        mon = FleetMonitor(workers=2)
        mon.begin(total=0, name="empty")
        mon.finalize()
        manifest = mon.manifest()
        assert manifest.cells == () and manifest.worker_rows == ()
        assert manifest_from_doc(manifest_to_doc(manifest)) == manifest


class TestAllCachedResume:
    def test_resume_banks_everything_and_stays_clean(self, tiny_spec, store):
        first = run_campaign(tiny_spec, store=store)
        second = run_campaign(tiny_spec, store=store)
        assert second.n_cached == len(second.results)
        manifest = second.manifest
        assert {c.status for c in manifest.cells} == {"cached"}
        assert manifest.counters["banked_s"] == pytest.approx(
            sum(r.elapsed_s for r in first.results if r.status == "ran"),
            rel=0.5,
        )
        assert manifest.counters["store_overwrites"] == 0
        # cached-only fleet evidence raises no anomalies
        assert second.anomalies() == []

    def test_cached_events_round_trip_one_terminal_line_per_cell(
        self, tiny_spec, store
    ):
        run_campaign(tiny_spec, store=store)
        events = []
        result = run_campaign(tiny_spec, store=store, event_sink=events.append)
        lines = [e for e in events]
        terminal = [e for e in lines if e["event"] == "cached"]
        assert len(terminal) == len(result.results)
        assert {e["cell"] for e in terminal} == {
            r.cell.label for r in result.results
        }


class TestAllFailedCampaign:
    def test_manifest_attributes_the_failures(self, tiny_spec, store, tmp_path):
        os.environ[FLAKY_DIR_ENV] = str(tmp_path / "flaky")
        (tmp_path / "flaky").mkdir()
        try:
            result = run_campaign(
                tiny_spec, store=store, worker=always_raising_worker, retries=1
            )
        finally:
            os.environ.pop(FLAKY_DIR_ENV, None)
        assert result.n_failed == len(result.results)
        manifest = result.manifest
        assert {c.status for c in manifest.cells} == {"failed"}
        assert all(c.error for c in manifest.cells)
        # summary still renders with every cell failed
        from repro.campaign import format_summary

        text = format_summary(result)
        assert "0 ran" in text and f"{result.n_failed} failed" in text


class TestDoctorFleetScenarios:
    """Synthetic pathologies must fire through the full doctor path."""

    def _persist(self, tmp_path, manifest):
        root = tmp_path / "cache"
        with ResultStore(root) as store:
            store.put_manifest(manifest)
        return str(root)

    def _campaign_manifest(self, tiny_spec, store):
        return run_campaign(tiny_spec, store=store).manifest

    def test_healthy_campaign_passes_doctor(self, tiny_spec, store, capsys):
        run_campaign(tiny_spec, store=store)
        assert main(["doctor", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out and "no findings" in out

    def test_retry_storm_fires_on_a_flapping_grid(
        self, tiny_spec, store, tmp_path, capsys
    ):
        from dataclasses import replace

        manifest = self._campaign_manifest(tiny_spec, store)
        stormy = replace(
            manifest,
            counters={**manifest.counters, "retries": 5, "ran": 6, "failed": 0},
        )
        root = self._persist(tmp_path, stormy)
        assert main(["doctor", "--store", root]) == 1
        assert "retry_storm" in capsys.readouterr().out

    def test_cache_stampede_fires_on_overwrites(
        self, tiny_spec, store, tmp_path, capsys
    ):
        from dataclasses import replace

        manifest = self._campaign_manifest(tiny_spec, store)
        stampede = replace(
            manifest,
            counters={**manifest.counters, "store_overwrites": 6, "ran": 6},
        )
        root = self._persist(tmp_path, stampede)
        assert main(["doctor", "--store", root]) == 1
        assert "cache_stampede" in capsys.readouterr().out

    def test_run_id_selects_a_specific_manifest(
        self, tiny_spec, store, capsys
    ):
        manifest = self._campaign_manifest(tiny_spec, store)
        assert main(
            ["doctor", "--store", str(store.root), "--run-id", manifest.run_id]
        ) == 0
        assert manifest.run_id in capsys.readouterr().out

    def test_unknown_run_id_is_an_error(self, tiny_spec, store):
        self._campaign_manifest(tiny_spec, store)
        with pytest.raises(SystemExit, match="no campaign manifest"):
            main(["doctor", "--store", str(store.root), "--run-id", "nope"])


class TestOtherSchemaManifest:
    """A store whose manifest an older version wrote (schema 1) costs
    the fleet detectors and the manifest view, never a traceback."""

    @pytest.fixture()
    def old_store(self, tiny_spec, store):
        import json

        from repro.campaign import manifest_to_doc

        manifest = run_campaign(tiny_spec, store=store).manifest
        doc = {**manifest_to_doc(manifest), "schema": 1}
        with store._db:
            store._db.execute(
                "UPDATE manifests SET doc = ? WHERE run_id = ?",
                (json.dumps(doc), manifest.run_id),
            )
        return str(store.root), manifest.run_id

    @pytest.mark.parametrize("by_run_id", [False, True])
    def test_doctor_runs_the_cell_detectors_and_names_the_schema(
        self, old_store, by_run_id, capsys
    ):
        root, run_id = old_store
        argv = ["doctor", "--store", root]
        if by_run_id:
            argv += ["--run-id", run_id]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "no findings" in captured.out
        assert ", manifest" not in captured.out
        # the fleet detectors were skipped, so they are neither counted
        # nor named
        assert (
            "5 detector(s) (energy_balance, model_divergence,"
            " residual_convergence, schedule_drift, span_integrity)\n"
        ) in captured.out
        (line,) = captured.err.splitlines()
        assert run_id in line and "manifest schema 1" in line
        assert "Traceback" not in captured.err

    def test_report_campaign_names_the_schema_and_exits_1(self, old_store):
        root, run_id = old_store
        with pytest.raises(SystemExit) as exc:
            main(["report", "--store", root, "--campaign"])
        message = str(exc.value.code)
        assert run_id in message and "manifest schema 1" in message
        assert "\n" not in message


class TestJsonProgressCli:
    def test_stream_round_trips_with_one_terminal_line_per_cell(
        self, tmp_path, capsys
    ):
        progress = tmp_path / "progress.jsonl"
        code = main(
            CAMPAIGN_ARGS
            + [
                "--store", str(tmp_path / "cache"),
                "--workers", "2",
                "--json-progress", str(progress),
            ]
        )
        assert code == 0
        events = [
            cell_event_from_line(line)
            for line in progress.read_text().splitlines()
        ]
        assert events, "progress stream is empty"
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 1
        terminal = [e for e in events if e["event"] in ("finished", "failed")]
        labels = {e["cell"] for e in events}
        assert len(terminal) == len(labels)
        assert {e["cell"] for e in terminal} == labels
        # every cell queued before its terminal event
        for label in labels:
            kinds = [e["event"] for e in events if e["cell"] == label]
            assert kinds.count("queued") >= 1

    def test_watch_once_prints_an_escape_free_final_frame(
        self, tmp_path, capsys
    ):
        code = main(
            CAMPAIGN_ARGS
            + ["--store", str(tmp_path / "cache"), "--watch", "--once"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "\x1b" not in out
        assert "repro campaign —" in out
        assert "eta 0:00" in out
        assert "run manifest" in out

    def test_once_requires_watch(self, tmp_path):
        with pytest.raises(SystemExit, match="--once requires --watch"):
            main(CAMPAIGN_ARGS + ["--store", str(tmp_path / "cache"), "--once"])
