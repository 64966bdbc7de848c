"""The run manifest: round-trip fidelity, strictness, rendering."""

from __future__ import annotations

import json

import pytest

from repro.campaign.manifest import (
    MANIFEST_SCHEMA,
    ManifestCell,
    ManifestError,
    ManifestWorker,
    RunManifest,
    format_manifest,
    manifest_from_doc,
    manifest_to_doc,
)


def sample_manifest(**overrides) -> RunManifest:
    fields = dict(
        run_id="feedbeeffeedbeef",
        name="sample",
        workers=2,
        started_at=1000.0,
        finished_at=1010.0,
        wall_s=10.0,
        counters={
            "cells": 2, "ran": 1, "cached": 0, "failed": 1, "retries": 2,
            "queue_wait_s": 0.5, "compute_s": 3.0, "wasted_s": 1.5,
            "banked_s": 0.0, "log_lines": 7, "store_overwrites": 0,
            "dropped_frames": 4,
        },
        cells=(
            ManifestCell(
                label="wathen100/r8/f2/x0.25/FF",
                cell_id="a" * 16,
                scheme="FF",
                status="ran",
                attempts=1,
                worker=101,
                queued_ts=1000.0,
                started_ts=1000.5,
                finished_ts=1003.5,
                queue_wait_s=0.5,
                compute_s=3.0,
            ),
            ManifestCell(
                label="wathen100/r8/f2/x0.25/RD",
                cell_id="b" * 16,
                scheme="RD",
                status="failed",
                attempts=3,
                worker=102,
                wasted_s=1.5,
                error="RuntimeError: " + "x" * 60,
            ),
        ),
        worker_rows=(
            ManifestWorker(
                worker=101, cells_done=1, busy_s=3.0, max_rss_bytes=1 << 20,
                last_cell="wathen100/r8/f2/x0.25/FF",
            ),
            ManifestWorker(worker=102, failed_attempts=3, busy_s=1.5),
        ),
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRoundTrip:
    def test_doc_round_trip_is_exact(self):
        manifest = sample_manifest()
        assert manifest_from_doc(manifest_to_doc(manifest)) == manifest

    def test_survives_json(self):
        """The store persists the doc as JSON: tuples become lists and
        must still reconstruct the identical manifest."""
        manifest = sample_manifest()
        doc = json.loads(json.dumps(manifest_to_doc(manifest), sort_keys=True))
        assert manifest_from_doc(doc) == manifest

    def test_retries_property_sums_extra_attempts(self):
        assert sample_manifest().retries == 2

    def test_cell_lookup(self):
        manifest = sample_manifest()
        assert manifest.cell("wathen100/r8/f2/x0.25/RD").status == "failed"
        assert manifest.cell("nope") is None


class TestStrictness:
    def test_non_object_is_rejected(self):
        with pytest.raises(ManifestError, match="not an object"):
            manifest_from_doc([1, 2])

    def test_schema_mismatch_is_rejected(self):
        doc = manifest_to_doc(sample_manifest())
        doc["schema"] = MANIFEST_SCHEMA + 1
        with pytest.raises(ManifestError, match="unsupported manifest schema"):
            manifest_from_doc(doc)

    def test_missing_key_is_rejected(self):
        doc = manifest_to_doc(sample_manifest())
        del doc["counters"]
        with pytest.raises(ManifestError, match="missing keys: counters"):
            manifest_from_doc(doc)

    def test_unknown_cell_status_is_rejected(self):
        doc = manifest_to_doc(sample_manifest())
        doc["cells"][0]["status"] = "vanished"
        with pytest.raises(ManifestError, match="unknown cell status"):
            manifest_from_doc(doc)

    def test_malformed_row_is_rejected(self):
        doc = manifest_to_doc(sample_manifest())
        doc["worker_rows"][0]["surprise"] = 1
        with pytest.raises(ManifestError, match="malformed manifest row"):
            manifest_from_doc(doc)


class TestRendering:
    def test_header_carries_the_counters(self):
        text = format_manifest(sample_manifest())
        assert "run manifest feedbeeffeedbeef" in text
        assert "campaign 'sample', 2 worker(s)" in text
        assert "1 ran, 0 cached, 1 failed, 2 retries" in text
        assert "wasted 1.50s" in text
        assert "at least 4 dropped frames" in text

    def test_tables_render_workers_and_cells(self):
        text = format_manifest(sample_manifest())
        assert "workers" in text and "cells" in text
        assert "101" in text and "102" in text
        assert "wathen100/r8/f2/x0.25/RD" in text

    def test_long_errors_are_truncated(self):
        text = format_manifest(sample_manifest())
        assert "RuntimeError: " + "x" * 26 in text
        assert "x" * 40 not in text

    def test_empty_manifest_renders_header_only(self):
        text = format_manifest(
            sample_manifest(cells=(), worker_rows=(), counters={})
        )
        assert "run manifest" in text
        assert "workers\n" not in text
