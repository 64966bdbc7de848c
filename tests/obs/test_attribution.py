"""Phase attribution: waterfalls must reconcile with the account."""

import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs.analysis import (
    RunRecord,
    attribute_record,
    phase_counters,
    scheme_rollup,
)
from repro.power.energy import PhaseTag


class TestTracedAttribution:
    """The acceptance bar: per-phase sums reproduce the account totals."""

    def test_source_is_the_metric_counters(self, traced_record):
        assert attribute_record(traced_record).source == "metrics"

    def test_energy_reconciles_to_1e9_relative(self, traced_record):
        attr = attribute_record(traced_record)
        assert attr.residual_energy_rel <= 1e-9
        assert attr.residual_time_rel <= 1e-9

    def test_totals_are_the_account_totals(self, traced_record):
        attr = attribute_record(traced_record)
        account = traced_record.report.account
        assert attr.total_time_s == account.total_time_s
        assert attr.total_energy_j == account.total_energy_j

    def test_resilience_phases_present_on_a_faulty_run(self, traced_record):
        attr = attribute_record(traced_record)
        phases = {r.phase for r in attr.rows}
        assert PhaseTag.SOLVE.value in phases
        assert any(r.is_resilience for r in attr.rows)
        assert attr.resilience_energy_j > 0

    def test_rows_follow_phase_tag_order(self, traced_record):
        order = [tag.value for tag in PhaseTag]
        rows = attribute_record(traced_record).rows
        indices = [order.index(r.phase) for r in rows if r.phase in order]
        assert indices == sorted(indices)

    def test_shares_sum_to_one_minus_residual(self, traced_record):
        attr = attribute_record(traced_record)
        assert sum(r.energy_share for r in attr.rows) == pytest.approx(1.0)
        assert sum(r.time_share for r in attr.rows) == pytest.approx(1.0)


class TestFallbackSources:
    def test_untraced_report_attributes_from_the_account(self):
        config = ExperimentConfig(
            matrix="wathen100", nranks=8, n_faults=0, scale=0.25
        )
        report = Experiment(config).run("F0")
        attr = attribute_record(RunRecord("ff", report, config))
        assert attr.source == "account"
        assert attr.residual_energy_rel == 0.0
        assert attr.residual_time_rel == 0.0

    def test_no_evidence_raises(self):
        # a record is a cell's report and config: there is no record
        # without them to attribute
        with pytest.raises(TypeError):
            RunRecord(label="empty")


class TestPhaseCounters:
    def test_mirrors_the_account_bit_for_bit(self, traced_record):
        pairs = phase_counters(traced_record.telemetry.metrics)
        for tag, charge in traced_record.report.account.charges.items():
            t, e = pairs[tag.value]
            assert t == pytest.approx(charge.time_s, rel=1e-12)
            assert e == pytest.approx(charge.energy_j, rel=1e-12)


class TestSchemeRollup:
    def test_sums_cells_per_scheme(self, traced_record):
        rollup = scheme_rollup([attribute_record(traced_record)] * 2)
        assert set(rollup) == {"LI"}
        agg = rollup["LI"]
        single = attribute_record(traced_record)
        assert agg.source == "rollup"
        assert agg.label == "LI (2 cells)"
        assert agg.total_energy_j == pytest.approx(2 * single.total_energy_j)
        assert agg.residual_energy_rel <= 1e-9

    def test_empty_input_yields_empty_rollup(self):
        assert scheme_rollup([]) == {}
