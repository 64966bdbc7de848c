"""Rendering: terminal tables, Prometheus exposition, HTML report."""

from html import unescape

from repro.obs.analysis import (
    attribute_record,
    build_span_tree,
    critical_path,
    diff_runs,
    format_attribution,
    format_attribution_rollup,
    format_critical_path,
    format_findings,
    format_run_diff,
    format_span_tree,
    html_report,
    prometheus_text,
    scheme_rollup,
)
from repro.obs.analysis.detectors import Finding
from repro.obs.metrics import MetricsRegistry


class TestTerminal:
    def test_attribution_waterfall_shows_residual(self, traced_record):
        text = format_attribution(attribute_record(traced_record))
        assert "residual" in text
        assert "solve" in text
        assert "(* = resilience phase)" in text
        assert "#" in text  # the waterfall bars

    def test_rollup_renders_every_scheme(self, traced_record):
        rollup = scheme_rollup([attribute_record(traced_record)])
        text = format_attribution_rollup(rollup)
        assert "LI (1 cells)" in text

    def test_empty_rollup_says_so(self):
        assert format_attribution_rollup({}) == "no attributable cells"

    def test_findings_render_with_a_count(self):
        findings = [
            Finding("d", "error", "cell", "broken"),
            Finding("d", "warning", "cell", "odd"),
        ]
        text = format_findings(findings)
        assert "[error] cell: d: broken" in text
        assert "2 finding(s): 1 error(s), 1 warning(s)" in text
        assert format_findings([]) == "no findings"

    def test_span_tree_indents_children(self, traced_record):
        text = format_span_tree(traced_record.telemetry.spans.spans)
        lines = text.splitlines()
        assert any(line.startswith("solve") for line in lines)
        # at least one nested span rendered with a two-space indent
        assert any(line.startswith("  ") for line in lines[2:])
        assert format_span_tree([]) == "no spans"

    def test_critical_path_starts_at_the_root(self, traced_record):
        path = critical_path(
            build_span_tree(traced_record.telemetry.spans.spans)
        )
        text = format_critical_path(path)
        assert text.splitlines()[1].startswith("solve")
        assert format_critical_path([]) == "no spans"

    def test_identical_diff_renders_one_line(self, traced_record):
        text = format_run_diff(diff_runs(traced_record, traced_record))
        assert "identical under the store schema" in text


class TestPrometheus:
    def test_counter_gets_total_suffix_and_type_line(self):
        reg = MetricsRegistry()
        reg.counter("cg.iterations", scheme="LI").inc(42)
        text = prometheus_text(reg)
        assert "# TYPE cg_iterations_total counter" in text
        assert 'cg_iterations_total{scheme="LI"} 42.0' in text

    def test_gauge_and_histogram_series(self):
        reg = MetricsRegistry()
        reg.gauge("solver.energy_j").set(12.5)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        text = prometheus_text(reg)
        assert "# TYPE solver_energy_j gauge" in text
        assert "solver_energy_j 12.5" in text
        assert 'lat_bucket{le="1.0"} 0' in text
        assert 'lat_bucket{le="2.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 1.5" in text
        assert "lat_count 1" in text

    def test_deterministic_and_snapshot_equivalent(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc()
        assert prometheus_text(reg) == prometheus_text(reg.snapshot())

    def test_invalid_name_characters_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("phase.time_s", phase="solve").inc(1)
        text = prometheus_text(reg)
        assert 'phase_time_s_total{phase="solve"} 1.0' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestHtml:
    def test_report_is_self_contained(self, traced_record):
        text = format_attribution(attribute_record(traced_record)) + "\n"
        doc = html_report(text)
        assert doc.startswith("<!DOCTYPE html>")
        assert "<link" not in doc and "<script" not in doc  # no external assets
        # the page is the terminal text, verbatim, in one <pre>
        assert doc.count("<pre>") == 1
        body = doc[doc.index("<pre>") + 5 : doc.index("</pre>")]
        assert unescape(body) == text

    def test_dynamic_text_is_escaped(self):
        text = "<script>alert(1)</script>\n" + str(
            Finding("d", "error", "<cell>", "a < b")
        )
        doc = html_report(text)
        assert "<script>" not in doc
        assert "&lt;script&gt;" in doc
        assert "&lt;cell&gt;" in doc

    def test_resilience_bars_are_marked(self, traced_record):
        attr = attribute_record(traced_record)
        doc = html_report(format_attribution(attr))
        resilience = [r.phase for r in attr.rows if r.is_resilience]
        assert resilience
        for phase in resilience:
            assert f"{phase:<11}*" in doc  # the terminal's resilience marker
