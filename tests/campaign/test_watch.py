"""The --watch dashboard: frame rendering and the repaint loop."""

from __future__ import annotations

import io
import time

from repro.campaign.fleet import FleetMonitor
from repro.campaign.runner import CellResult
from repro.campaign.watch import CampaignWatch, render_fleet
from repro.obs.term import CLEAR


def snapshot(**overrides) -> dict:
    snap = {
        "run_id": "feedbeeffeedbeef",
        "name": "watch-test",
        "workers": 2,
        "total": 6,
        "done": 3,
        "ran": 2,
        "cached": 1,
        "failed": 0,
        "retries": 1,
        "wall_s": 12.0,
        "cells_per_sec": 0.25,
        "eta_s": 36.0,
        "queue_wait_s": 0.5,
        "compute_s": 8.0,
        "wasted_s": 0.1,
        "banked_s": 4.0,
        "log_lines": 3,
        "worker_rows": [
            {
                "worker": 101, "state": "busy",
                "cell": "wathen100/r8/f2/x0.25/FF", "cell_age_s": 2.5,
                "done": 2, "failed_attempts": 0, "rss_bytes": 64 << 20,
            },
            {
                "worker": 102, "state": "idle", "cell": None,
                "cell_age_s": None, "done": 1, "failed_attempts": 1,
                "rss_bytes": 32 << 20,
            },
        ],
        "last_error": None,
    }
    snap.update(overrides)
    return snap


class TestRenderFleet:
    def test_frame_is_escape_free(self):
        frame = render_fleet(snapshot())
        assert "\x1b" not in frame

    def test_frame_carries_the_headline_numbers(self):
        frame = render_fleet(snapshot())
        assert "watch-test [run feedbeeffeedbeef], 2 worker(s)" in frame
        assert "3/6 (50%)" in frame
        assert "2 ran  1 cached  0 failed  1 retries" in frame
        assert "eta 0:36" in frame
        assert "compute 8.00s" in frame and "banked 4.00s" in frame

    def test_worker_rows_show_current_cell_and_age(self):
        frame = render_fleet(snapshot())
        assert "wathen100/r8/f2/x0.25/FF (2.5s)" in frame
        assert "busy" in frame and "idle" in frame
        assert "64.0M" in frame

    def test_unknown_eta_renders_as_dashes(self):
        assert "eta --" in render_fleet(snapshot(eta_s=None))

    def test_serial_run_renders_a_placeholder_row(self):
        frame = render_fleet(snapshot(worker_rows=[]))
        assert "serial run: cells execute in-process" in frame

    def test_last_error_line(self):
        frame = render_fleet(
            snapshot(
                last_error={
                    "cell": "Andrews/r8/f2/x0.25/RD",
                    "error": "RuntimeError: boom",
                    "attempts": 3,
                }
            )
        )
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
