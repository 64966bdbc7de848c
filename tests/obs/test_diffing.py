"""Run diffing: identical runs diff empty, changes surface by name."""

from dataclasses import replace

import numpy as np

from repro.harness.experiment import Experiment
from repro.obs.analysis import RunRecord, diff_runs
from repro.obs.analysis.diffing import MAX_STRUCTURAL_CHANGES, MetricDelta


class TestIdentity:
    def test_run_diffed_against_itself_is_identical(self, traced_record):
        diff = diff_runs(traced_record, traced_record)
        assert diff.identical
        assert diff.n_changes == 0

    def test_labels_are_carried(self, traced_record):
        a = replace(traced_record, label="A")
        b = replace(traced_record, label="B")
        diff = diff_runs(a, b)
        assert (diff.label_a, diff.label_b) == ("A", "B")


class TestScalarAndPhaseDeltas:
    def test_different_schemes_differ_in_scalars(self, traced_li):
        config, li = traced_li
        rd = Experiment(config).run("RD")
        diff = diff_runs(
            RunRecord("LI", li, config),
            RunRecord("RD", rd, config),
        )
        assert not diff.identical
        changed = {d.name for d in diff.scalars if d.changed}
        assert "energy_j" in changed
        # both runs attribute, so per-phase deltas line up by phase name
        assert any(d.changed for d in diff.phases)

    def test_metric_delta_math(self):
        d = MetricDelta("x", 2.0, 3.0)
        assert d.delta == 1.0
        assert d.rel == 1.0 / 3.0
        assert d.changed
        assert not MetricDelta("x", 2.0, 2.0).changed

    def test_span_deltas_align_by_name(self, traced_li):
        config, li = traced_li
        untraced_cfg = replace(config, n_faults=0)
        ff = Experiment(untraced_cfg).run("F0")
        diff = diff_runs(
            RunRecord("LI", li, config),
            RunRecord("FF", ff, untraced_cfg),
        )
        by_name = {d.name: d for d in diff.spans}
        # the faulty traced run has recovery spans; the untraced one none
        assert any(
            d.count_b == 0 and d.count_a > 0 for d in by_name.values()
        )


class TestStructuralWalk:
    def test_long_numeric_arrays_summarize_to_one_change(self):
        from repro.obs.analysis.diffing import _walk

        a = {"deep": {"xs": list(range(100))}}
        b = {"deep": {"xs": [*range(50), 999, *range(51, 100)]}}
        out = []
        _walk(a, b, "", out)
        assert out == ["deep.xs: numeric array len 100 -> 100, first diverges at [50]"]

    def test_residual_history_is_excluded_from_the_walk(self, traced_record):
        history = np.array(traced_record.report.residual_history, dtype=float)
        mutated = history.copy()
        mutated[3] *= 2.0
        a = replace(traced_record, label="A")
        b = replace(
            traced_record,
            label="B",
            report=replace(traced_record.report, residual_history=mutated),
        )
        diff = diff_runs(a, b)
        assert len(diff.structural) <= MAX_STRUCTURAL_CHANGES
        assert not any("residual_history" in c for c in diff.structural)

    def test_telemetry_is_excluded_from_the_structural_walk(self, traced_record):
        diff = diff_runs(traced_record, traced_record)
        assert not any(c.startswith("telemetry") for c in diff.structural)

    def test_scalar_value_changes_are_pathed(self):
        from repro.obs.analysis.diffing import _walk

        out = []
        _walk({"a": {"b": 1}}, {"a": {"b": 2}, "c": 3}, "", out)
        assert "a.b: 1 -> 2" in out
        assert "c: only in B" in out

