"""Trace analytics: attribution, anomaly detection, diffing, rendering.

This subpackage turns the raw telemetry the solver and campaign layers
emit (``repro.obs``) into the *figures and sanity checks* the paper's
claims live on (see DESIGN.md §5g):

* :mod:`~repro.obs.analysis.records` — :class:`RunRecord`, the common
  unit every analysis consumes (a cell's label, report and config);
* :mod:`~repro.obs.analysis.spantree` — exact span-nesting
  reconstruction, flamegraph summaries, critical-path extraction;
* :mod:`~repro.obs.analysis.attribution` — per-phase time/energy
  waterfalls reconciled against the EnergyAccount with an explicit
  residual;
* :mod:`~repro.obs.analysis.detectors` — the anomaly-detector table
  behind ``repro doctor``;
* :mod:`~repro.obs.analysis.diffing` — structural run-vs-run comparison
  over the store's own payload schema;
* :mod:`~repro.obs.analysis.render` — terminal tables, the HTML page
  that holds them, Prometheus text exposition.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "attribution": (
        "PhaseAttribution",
        "PhaseRow",
        "attribute_record",
        "phase_counters",
        "scheme_rollup",
    ),
    "detectors": ("DETECTORS", "Finding", "run_detectors"),
    "diffing": ("MetricDelta", "RunDiff", "SpanDelta", "diff_runs"),
    "records": ("RunRecord", "records_from_cells", "select_records"),
    "render": (
        "format_attribution",
        "format_attribution_rollup",
        "format_critical_path",
        "format_findings",
        "format_run_diff",
        "format_span_tree",
        "html_report",
        "prometheus_text",
    ),
    "spantree": (
        "SpanNode",
        "build_span_tree",
        "critical_path",
        "tree_summary",
        "walk",
    ),
}

__all__ = [
    "DETECTORS",
    "Finding",
    "MetricDelta",
    "PhaseAttribution",
    "PhaseRow",
    "RunDiff",
    "RunRecord",
    "SpanDelta",
    "SpanNode",
    "attribute_record",
    "build_span_tree",
    "critical_path",
    "diff_runs",
    "format_attribution",
    "format_attribution_rollup",
    "format_critical_path",
    "format_findings",
    "format_run_diff",
    "format_span_tree",
    "html_report",
    "phase_counters",
    "prometheus_text",
    "records_from_cells",
    "run_detectors",
    "scheme_rollup",
    "select_records",
    "tree_summary",
    "walk",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
