"""Telemetry through the campaign: persistence, rollup, bit-identity.

The acceptance surface of the observability layer: a traced campaign
persists every cell's telemetry in the store, the rollup merges the
worker-side registries, and — because solver telemetry rides the
simulated clock — a serial run and a 2-worker run export byte-identical
JSONL.
"""

from __future__ import annotations

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.campaign.progress import format_telemetry_summary
from repro.campaign.spec import CampaignSpec
from repro.obs.export import trace_jsonl_lines
from repro.obs.telemetry import Telemetry


@pytest.fixture()
def traced_spec() -> CampaignSpec:
    """One matrix x one scheme at scale 0.25, telemetry on."""
    return CampaignSpec(
        name="traced",
        matrices=("wathen100",),
        schemes=("F0",),
        nranks=(8,),
        fault_loads=(2,),
        scale=0.25,
        trace=True,
    )


def cell_lines(result) -> list[str]:
    return trace_jsonl_lines(result.cell_telemetry())


class TestTelemetryPersistence:
    def test_store_round_trips_cell_telemetry(self, traced_spec, store):
        result = run_campaign(traced_spec, store=store)
        assert result.n_failed == 0
        for entry in store.entries():
            tel = entry.report.details.get("telemetry")
            assert isinstance(tel, Telemetry)
            assert tel.timebase == "sim"
            # the trace alias still points at the same event log
            assert entry.report.details["trace"] is tel.events
            if entry.cell.scheme == "F0":
                assert len(tel.events.faults) == 2
                assert len(tel.events.recoveries) == 2

    def test_cached_cells_reproduce_telemetry_exactly(self, traced_spec, store):
        first = run_campaign(traced_spec, store=store)
        second = run_campaign(traced_spec, store=store)
        assert second.n_cached == len(second.results)
        assert cell_lines(first) == cell_lines(second)

    def test_untraced_spec_persists_no_telemetry(self, tiny_spec, store):
        result = run_campaign(tiny_spec, store=store)
        assert result.cell_telemetry() == {}
        for entry in store.entries():
            assert "telemetry" not in entry.report.details


class TestRollup:
    def test_rollup_merges_worker_registries(self, traced_spec, store):
        result = run_campaign(traced_spec, store=store)
        snap = result.telemetry_rollup().snapshot()
        assert snap["counters"]["campaign.cells{status=ran}"] == 2.0
        assert snap["counters"]["campaign.cache.misses"] == 2.0
        assert snap["counters"]["campaign.retries"] == 0.0
        assert snap["counters"]["solver.faults{fault_class=SNF,scope=process}"] == 2.0
        hist = snap["histograms"]["recovery.latency_s{scheme=F0}"]
        assert hist["n"] == 2
        assert "campaign.cells_per_sec" in snap["gauges"]

    def test_rollup_counts_cache_hits_on_resume(self, traced_spec, store):
        run_campaign(traced_spec, store=store)
        snap = run_campaign(traced_spec, store=store).telemetry_rollup().snapshot()
        assert snap["counters"]["campaign.cells{status=cached}"] == 2.0
        assert snap["counters"]["campaign.cache.hits"] == 2.0
        # worker metrics still merge: cached reports carry telemetry too
        assert snap["counters"]["solver.recoveries{scheme=F0}"] == 2.0

    def test_summary_renders(self, traced_spec, store):
        result = run_campaign(traced_spec, store=store)
        text = format_telemetry_summary(result)
        assert "campaign telemetry rollup:" in text
        assert "recovery.latency_s{scheme=F0}" in text


def payload_bytes(root) -> dict[str, bytes]:
    """Every stored payload keyed by filename, byte-exact — listed the
    way the store lists them, and never an empty comparison."""
    with ResultStore(root) as store:
        files = store.payload_files()
    assert files, f"no payload files under {root}"
    return {p.name: p.read_bytes() for p in files}


class TestSerialParallelBitIdentity:
    def test_serial_and_parallel_export_identical_jsonl(self, traced_spec, tmp_path):
        serial = run_campaign(
            traced_spec, store=ResultStore(tmp_path / "serial")
        )
        parallel = run_campaign(
            traced_spec, store=ResultStore(tmp_path / "parallel"), max_workers=2
        )
        assert serial.n_failed == parallel.n_failed == 0
        assert cell_lines(serial) == cell_lines(parallel)

    def test_stored_payloads_are_byte_identical_with_the_channel_active(
        self, traced_spec, tmp_path
    ):
        """The fleet channel is side-band only: a serial run and a
        2-worker run (heartbeats, forwarded events and all) must write
        byte-identical payload files under identical content keys."""
        events: list[dict] = []
        run_campaign(traced_spec, store=ResultStore(tmp_path / "serial"))
        run_campaign(
            traced_spec,
            store=ResultStore(tmp_path / "parallel"),
            max_workers=2,
            heartbeat_interval_s=0.05,
            event_sink=events.append,
        )
        assert events, "the channel was not active"
        serial = payload_bytes(tmp_path / "serial")
        parallel = payload_bytes(tmp_path / "parallel")
        assert set(serial) == set(parallel)
        assert serial == parallel

    def test_fresh_and_cached_payloads_share_one_identity(
        self, traced_spec, tmp_path
    ):
        """A resume must not rewrite (or re-annotate) stored payloads."""
        store = ResultStore(tmp_path / "cache")
        run_campaign(traced_spec, store=store)
        before = payload_bytes(tmp_path / "cache")
        result = run_campaign(traced_spec, store=store)
        assert result.n_cached == len(result.results)
        assert payload_bytes(tmp_path / "cache") == before


class TestAnalysisEdgeCases:
    """The analyzer must tolerate thin or legacy evidence gracefully."""

    def test_empty_campaign_rollup_degrades_cleanly(self, tiny_spec):
        from repro.campaign import CampaignResult, format_attribution_summary

        empty = CampaignResult(spec=tiny_spec, results=[], wall_s=0.0, workers=1)
        assert empty.run_records() == []
        assert empty.attribution_summary() == {}
        assert empty.anomalies() == []
        text = format_attribution_summary(empty)
        assert "no attributable cells" in text
        assert "anomalies: none" in text

    def test_untraced_campaign_attributes_from_accounts(self, tiny_spec, store):
        from repro.campaign import format_attribution_summary

        result = run_campaign(tiny_spec, store=store)
        rollup = result.attribution_summary()
        assert set(rollup) == {"FF", "RD", "F0"}
        assert all(a.source == "rollup" for a in rollup.values())
        # summation order differs between the account dict and the
        # phase-ordered rows, so the residual is ulp-level, not exact
        assert all(a.residual_energy_rel <= 1e-12 for a in rollup.values())
        assert result.anomalies() == []
        assert "anomalies: none" in format_attribution_summary(result)

    def test_traced_campaign_reconciles_and_passes_doctor(
        self, traced_spec, store
    ):
        result = run_campaign(traced_spec, store=store)
        rollup = result.attribution_summary()
        for attr in rollup.values():
            assert attr.residual_energy_rel <= 1e-9
            assert attr.residual_time_rel <= 1e-9
        assert result.anomalies() == []

    def test_zero_fault_trace_analyzes_clean(self, store):
        from repro.obs.analysis import attribute_record, records_from_campaign
        from repro.obs.analysis import run_detectors

        spec = CampaignSpec(
            name="zero-fault",
            matrices=("wathen100",),
            schemes=("F0",),
            nranks=(8,),
            fault_loads=(0,),
            scale=0.25,
            trace=True,
        )
        result = run_campaign(spec, store=store)
        assert result.n_failed == 0
        records = records_from_campaign(result)
        for record in records:
            assert not record.telemetry.events.faults
            attr = attribute_record(record)
            assert attr.residual_energy_rel <= 1e-9
            assert attr.resilience_energy_j == 0.0
        assert run_detectors(records) == []

    def test_format2_store_payloads_analyze_under_format3(self, store):
        from tests.campaign.test_store import _write_v2_entry

        from repro.campaign.spec import CampaignCell
        from repro.harness.experiment import Experiment, ExperimentConfig
        from repro.obs.analysis import (
            attribute_record,
            records_from_store,
            run_detectors,
        )

        config = ExperimentConfig(
            matrix="wathen100", nranks=8, n_faults=2, scale=0.25
        )
        report = Experiment(config).run("LI")
        _write_v2_entry(store, CampaignCell(config, "LI"), report)

        records = records_from_store(store)
        assert len(records) == 1
        record = records[0]
        # legacy payload config regains the post-v2 defaults, so the
        # schedule-drift detector can re-derive the schedule
        assert record.config.engine == "sim"
        assert record.config.fault_scope == "process"
        attr = attribute_record(record)
        assert attr.source == "account"  # format-2 cells carry no trace
        assert attr.residual_energy_rel == 0.0
        assert run_detectors(records) == []
