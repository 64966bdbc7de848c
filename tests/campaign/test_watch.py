"""The --watch dashboard: frame rendering and the repaint loop."""

from __future__ import annotations

import io
import time

from repro.campaign.fleet import FleetMonitor
from repro.campaign.manifest import ManifestCell, ManifestWorker, RunManifest
from repro.campaign.runner import CellResult
from repro.campaign.watch import CampaignWatch, render_fleet
from repro.obs.term import CLEAR


#: A worker busy on one cell for 2.5 s when the manifest was taken.
BUSY = {101: ("wathen100/r8/f2/x0.25/FF", 1009.5)}


def manifest(**overrides) -> RunManifest:
    fields = {
        "run_id": "feedbeeffeedbeef",
        "name": "watch-test",
        "workers": 2,
        "started_at": 1000.0,
        "finished_at": 1012.0,
        "wall_s": 12.0,
        "counters": {
            "cells": 6, "ran": 2, "cached": 1, "failed": 0, "retries": 1,
            "queue_wait_s": 0.5, "compute_s": 8.0, "wasted_s": 0.1,
            "banked_s": 4.0, "log_lines": 3,
        },
        "worker_rows": (
            ManifestWorker(101, cells_done=2, max_rss_bytes=64 << 20),
            ManifestWorker(
                102, cells_done=1, failed_attempts=1, max_rss_bytes=32 << 20
            ),
        ),
    }
    fields.update(overrides)
    return RunManifest(**fields)


class TestRenderFleet:
    def test_frame_is_escape_free(self):
        frame = render_fleet(manifest(), 36.0, BUSY)
        assert "\x1b" not in frame

    def test_frame_carries_the_headline_numbers(self):
        frame = render_fleet(manifest(), 36.0, BUSY)
        assert "watch-test [run feedbeeffeedbeef], 2 worker(s)" in frame
        assert "3/6 (50%)" in frame
        assert "2 ran  1 cached  0 failed  1 retries" in frame
        assert "0.25 cells/s" in frame
        assert "eta 0:36" in frame
        assert "compute 8.00s" in frame and "banked 4.00s" in frame

    def test_worker_rows_show_current_cell_and_age(self):
        frame = render_fleet(manifest(), 36.0, BUSY)
        assert "wathen100/r8/f2/x0.25/FF (2.5s)" in frame
        assert "busy" in frame and "idle" in frame
        assert "64.0M" in frame

    def test_unknown_eta_renders_as_dashes(self):
        assert "eta --" in render_fleet(manifest(), None, BUSY)

    def test_serial_run_renders_a_placeholder_row(self):
        frame = render_fleet(manifest(worker_rows=()), 36.0, {})
        assert "serial run: cells execute in-process" in frame

    def test_last_error_line(self):
        failed = ManifestCell(
            "Andrews/r8/f2/x0.25/RD", "c" * 16, "RD", "failed", attempts=3,
            error="RuntimeError: boom",
        )
        frame = render_fleet(manifest(cells=(failed,)), 36.0, BUSY)
        assert "last error" in frame
        assert "Andrews/r8/f2/x0.25/RD (attempt 3): RuntimeError: boom" in frame


class TestCampaignWatch:
    def _monitor(self, tiny_spec) -> FleetMonitor:
        mon = FleetMonitor("feedbeeffeedbeef", workers=2)
        mon.begin(total=2, name="watch-test")
        mon.cell_done(
            CellResult(cell=tiny_spec.cells()[0], status="ran", elapsed_s=0.5)
        )
        return mon

    def test_once_mode_never_spawns_the_thread(self, tiny_spec):
        watch = CampaignWatch(self._monitor(tiny_spec), once=True).start()
        assert watch._thread is None
        frame = watch.final_frame()
        assert "\x1b" not in frame
        assert "1/2" in frame
        watch.stop()

    def test_live_loop_repaints_with_one_clear_per_frame(self, tiny_spec):
        out = io.StringIO()
        watch = CampaignWatch(
            self._monitor(tiny_spec), interval_s=0.01, out=out
        ).start()
        deadline = time.time() + 5.0
        while time.time() < deadline and CLEAR not in out.getvalue():
            time.sleep(0.01)
        watch.stop()
        text = out.getvalue()
        assert text.count(CLEAR) >= 1
        assert "watch-test" in text

    def test_stop_is_idempotent(self, tiny_spec):
        watch = CampaignWatch(
            self._monitor(tiny_spec), interval_s=0.01, out=io.StringIO()
        ).start()
        watch.stop()
        watch.stop()
        assert watch._thread is None
