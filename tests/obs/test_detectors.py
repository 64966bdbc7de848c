"""Anomaly detectors: zero findings on health, loud on corruption."""

from dataclasses import replace

import numpy as np
import pytest

from repro.obs.analysis import DETECTORS, RunRecord, run_detectors
from repro.obs.analysis.detectors import (
    ENERGY_BALANCE_REL_TOL,
    RESIDUAL_JUMP_FACTOR,
    Finding,
)
from repro.obs.export import telemetry_from_dict, telemetry_to_dict


def _copy_record(record: RunRecord) -> RunRecord:
    """An independent copy whose telemetry can be corrupted freely."""
    telemetry = telemetry_from_dict(telemetry_to_dict(record.telemetry))
    details = {**record.report.details, "telemetry": telemetry}
    return replace(record, report=replace(record.report, details=details))


class TestRegistry:
    def test_builtins_are_registered(self):
        names = set(DETECTORS)
        assert {
            "energy_balance",
            "residual_convergence",
            "schedule_drift",
            "span_integrity",
            "model_divergence",
        } <= names

    def test_detectors_sorted_by_name(self):
        names = list(DETECTORS)
        assert names == sorted(names)

    def test_unknown_name_raises_with_the_known_list(self, traced_record):
        with pytest.raises(ValueError, match="unknown detectors: nope"):
            run_detectors([traced_record], ["nope"])

    def test_named_subset_runs_only_those(self, traced_record):
        # selecting one detector on a clean run: still zero findings
        assert run_detectors([traced_record], ["span_integrity"]) == []

    def test_finding_str_carries_value_and_threshold(self):
        f = Finding("d", "error", "cell", "broken", value=2.0, threshold=1.0)
        assert str(f) == "[error] cell: d: broken (value=2, threshold=1)"


class TestCleanRun:
    def test_all_detectors_pass_on_a_healthy_traced_run(self, traced_record):
        assert run_detectors([traced_record]) == []

    def test_detectors_tolerate_a_bare_record(self, traced_record):
        # the barest record there is — an untraced report: every
        # telemetry check degrades to "nothing to check", not a crash
        report = traced_record.report
        details = {k: v for k, v in report.details.items() if k != "telemetry"}
        bare = replace(traced_record, report=replace(report, details=details))
        assert bare.telemetry is None
        assert run_detectors([bare], list(DETECTORS)) == []


class TestEnergyBalance:
    def test_inflated_phase_counter_breaks_the_books(self, traced_record):
        bad = _copy_record(traced_record)
        bad.telemetry.metrics.counter("phase.energy_j", phase="solve").inc(
            traced_record.report.energy_j  # double-count the solve energy
        )
        findings = run_detectors([bad], ["energy_balance"])
        assert findings
        assert all(f.detector == "energy_balance" for f in findings)
        assert any("energy" in f.message for f in findings)
        assert all(f.threshold == ENERGY_BALANCE_REL_TOL for f in findings)

    def test_skewed_energy_gauge_disagrees_with_the_report(self, traced_record):
        bad = _copy_record(traced_record)
        bad.telemetry.metrics.gauge("solver.energy_j").set(
            traced_record.report.energy_j * 1.5
        )
        findings = run_detectors([bad], ["energy_balance"])
        assert any("gauge disagrees" in f.message for f in findings)


class TestResidualConvergence:
    def test_unexplained_jump_is_flagged(self, traced_record):
        history = np.array(traced_record.report.residual_history, dtype=float)
        # plant a jump far from any fault: right before the end
        i = len(history) - 2
        assert all(
            abs((i + 1) - ev.iteration) > 3
            for ev in traced_record.report.faults
        )
        history[i] = history[i - 1] * (2 * RESIDUAL_JUMP_FACTOR)
        bad = replace(
            traced_record,
            report=replace(traced_record.report, residual_history=history),
        )
        findings = run_detectors([bad], ["residual_convergence"])
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "jumped" in findings[0].message

    def test_fault_excursions_are_excused(self, traced_record):
        # the real faulty history has jumps at the fault iterations; the
        # detector must not flag them
        assert run_detectors([traced_record], ["residual_convergence"]) == []

    def test_stall_is_a_warning(self, traced_record):
        history = np.concatenate(
            [
                np.array(traced_record.report.residual_history, dtype=float),
                np.full(1500, 1.0),  # flat tail, no faults in the gap
            ]
        )
        bad = replace(
            traced_record,
            label="stalled",
            report=replace(
                traced_record.report, residual_history=history, faults=[]
            ),
        )
        findings = run_detectors([bad], ["residual_convergence"])
        warnings = [f for f in findings if f.severity == "warning"]
        assert any("not improved" in f.message for f in warnings)


class TestScheduleDrift:
    def test_trace_and_report_must_agree_on_faults(self, traced_record):
        bad = replace(
            traced_record,
            report=replace(
                traced_record.report,
                faults=[
                    replace(ev, iteration=ev.iteration + 7)
                    for ev in traced_record.report.faults
                ],
            ),
        )
        findings = run_detectors([bad], ["schedule_drift"])
        assert any("trace records faults" in f.message for f in findings)

    def test_config_implied_schedule_must_be_realized(self, traced_record):
        bad = replace(
            traced_record, report=replace(traced_record.report, faults=[])
        )
        findings = run_detectors([bad], ["schedule_drift"])
        assert any("config implies faults" in f.message for f in findings)


class TestSpanIntegrity:
    def test_child_escaping_its_parent_is_flagged(self, traced_record):
        bad = _copy_record(traced_record)
        spans = bad.telemetry.spans.spans
        root = max(spans, key=lambda s: s.duration_s)
        child_idx = next(i for i, s in enumerate(spans) if s.depth == 1)
        # shift the child past the end of the run: a gap the tree cannot
        # contain
        spans[child_idx] = replace(
            spans[child_idx],
            t_start=root.t_end + 1.0,
            t_end=root.t_end + 2.0,
        )
        findings = run_detectors([bad], ["span_integrity"])
        assert any("escapes its parent" in f.message for f in findings)

    def test_negative_duration_is_flagged(self, traced_record):
        bad = _copy_record(traced_record)
        spans = bad.telemetry.spans.spans
        spans[0] = replace(spans[0], t_start=spans[0].t_end + 5.0)
        findings = run_detectors([bad], ["span_integrity"])
        assert any("negative duration" in f.message for f in findings)

    def test_truncated_solve_span_disagrees_with_the_report(self, traced_record):
        bad = _copy_record(traced_record)
        spans = bad.telemetry.spans.spans
        solve_idx = next(
            i for i, s in enumerate(spans) if s.name == "solve" and s.depth == 0
        )
        mid = (spans[solve_idx].t_start + spans[solve_idx].t_end) / 2
        spans[solve_idx] = replace(spans[solve_idx], t_end=mid)
        findings = run_detectors([bad], ["span_integrity"])
        assert any("solve span covers" in f.message for f in findings)


def fleet_manifest(**overrides):
    """A healthy 2-worker campaign manifest to corrupt per test.

    Built from plain manifest rows (the detectors duck-type the
    manifest; obs never imports the campaign runner to produce one).
    """
    from repro.campaign.manifest import ManifestCell, ManifestWorker, RunManifest

    fields = dict(
        run_id="feedbeeffeedbeef",
        name="fleet",
        workers=2,
        started_at=1000.0,
        finished_at=1020.0,
        wall_s=20.0,
        counters={
            "cells": 4, "ran": 4, "cached": 0, "failed": 0, "retries": 0,
            "store_overwrites": 0,
        },
        cells=tuple(
            ManifestCell(
                label=f"m{i}/r8/f2/x0.25/RD", cell_id=f"{i:016x}",
                scheme="RD", status="ran", worker=101 + i % 2,
                started_ts=1000.0 + i, finished_ts=1002.0 + i, compute_s=2.0,
            )
            for i in range(4)
        ),
        worker_rows=(
            ManifestWorker(worker=101, cells_done=4, busy_s=8.0),
            ManifestWorker(worker=102, cells_done=4, busy_s=8.5),
        ),
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestFleetDetectors:
    """Fleet-scoped detectors judge the campaign manifest, not cells."""

    FLEET = ("retry_storm", "cache_stampede")

    def test_fleet_scope_is_registered(self):
        scopes = {name: scope for name, (scope, _) in DETECTORS.items()}
        for name in self.FLEET:
            assert scopes[name] == "fleet"

    def test_skipped_without_a_manifest(self):
        assert run_detectors([], list(self.FLEET)) == []

    def test_healthy_manifest_passes(self):
        assert run_detectors([], list(self.FLEET), manifest=fleet_manifest()) == []

    def test_retry_storm_needs_both_count_and_ratio(self):
        def with_retries(retries, ran):
            m = fleet_manifest()
            return run_detectors(
                [], ["retry_storm"],
                manifest=fleet_manifest(
                    counters={**m.counters, "retries": retries, "ran": ran}
                ),
            )

        assert with_retries(2, 4) == []  # below the absolute floor
        assert with_retries(3, 100) == []  # below the ratio
        (finding,) = with_retries(3, 4)
        assert finding.detector == "retry_storm"

    def test_cache_stampede_fires_on_mass_overwrites(self):
        m = fleet_manifest()
        assert run_detectors(
            [], ["cache_stampede"],
            manifest=fleet_manifest(
                counters={**m.counters, "store_overwrites": 2, "ran": 4}
            ),
        ) == []
        (finding,) = run_detectors(
            [], ["cache_stampede"],
            manifest=fleet_manifest(
                counters={**m.counters, "store_overwrites": 4, "ran": 4}
            ),
        )
        assert "overwrote" in finding.message


class TestDoctorScenario:
    """The acceptance case: a span gap plus an energy imbalance."""

    def test_corrupted_trace_yields_both_findings(self, traced_record):
        bad = _copy_record(traced_record)
        spans = bad.telemetry.spans.spans
        root = max(spans, key=lambda s: s.duration_s)
        child_idx = next(i for i, s in enumerate(spans) if s.depth == 1)
        spans[child_idx] = replace(
            spans[child_idx],
            t_start=root.t_end + 1.0,
            t_end=root.t_end + 2.0,
        )
        bad.telemetry.metrics.counter("phase.energy_j", phase="solve").inc(
            traced_record.report.energy_j
        )
        found = {f.detector for f in run_detectors([bad])}
        assert "span_integrity" in found
        assert "energy_balance" in found
