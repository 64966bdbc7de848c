"""Telemetry through the campaign: persistence, rollup, bit-identity.

The acceptance surface of the observability layer: a traced campaign
persists every cell's telemetry in the store, the rollup merges the
worker-side registries, and — because solver telemetry rides the
simulated clock — a serial run and a 2-worker run serialize every
cell's events, spans and metrics byte for byte alike.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.campaign.progress import format_telemetry_summary
from repro.campaign.spec import CampaignSpec
from repro.obs.export import telemetry_to_dict
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
    """Each cell's label and serialized telemetry (events, spans and
    metrics), one line per cell."""
    return [
        f"{label} {json.dumps(telemetry_to_dict(tel), sort_keys=True)}"
        for label, tel in result.cell_telemetry().items()
    ]


class TestTelemetryPersistence:
    def test_store_round_trips_cell_telemetry(self, traced_spec, store):
        result = run_campaign(traced_spec, store=store)
        assert result.n_failed == 0
        for entry in store.entries():
            tel = entry.report.details.get("telemetry")
            assert isinstance(tel, Telemetry)
            assert tel.timebase == "sim"
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
    """Every stored payload keyed by its cell's key, byte-exact, and
    never an empty comparison."""
    with ResultStore(root) as store:
        payloads = dict(store._db.execute("SELECT key, payload FROM results"))
    assert payloads, f"no payloads under {root}"
    return payloads


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
        2-worker run (forwarded events and all) must store
        byte-identical payloads under identical content keys."""
        events: list[dict] = []
        run_campaign(traced_spec, store=ResultStore(tmp_path / "serial"))
        run_campaign(
            traced_spec,
            store=ResultStore(tmp_path / "parallel"),
            max_workers=2,
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
        from repro.obs.analysis import attribute_record, run_detectors

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
        records = result.run_records()
        for record in records:
            assert not record.telemetry.events.faults
            attr = attribute_record(record)
            assert attr.residual_energy_rel <= 1e-9
            assert attr.resilience_energy_j == 0.0
        assert run_detectors(records) == []
