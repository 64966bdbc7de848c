"""Terminal, HTML and Prometheus rendering of analysis results.

Everything here returns plain strings; the CLI decides where they go.
The HTML page is the terminal text itself, so the two cannot drift.
The Prometheus exposition follows the text format conventions (counter
series get a ``_total`` suffix, histograms expand to cumulative
``_bucket{le=…}``/``_sum``/``_count`` series) with fully deterministic
ordering, so two identical registries render byte-identically — same
property the JSON snapshot has.
"""

from __future__ import annotations

import re
from html import escape
from typing import Iterable

from repro.obs.analysis.attribution import PhaseAttribution
from repro.obs.analysis.detectors import Finding
from repro.obs.analysis.diffing import RunDiff
from repro.obs.analysis.spantree import SpanNode, tree_summary
from repro.obs.metrics import MetricsRegistry

_BAR_WIDTH = 30


def _bar(share: float) -> str:
    n = max(0, min(_BAR_WIDTH, round(share * _BAR_WIDTH)))
    return "#" * n


def format_attribution(attr: PhaseAttribution) -> str:
    """One run's waterfall, residual line included."""
    header = (
        f"{'phase':<12} {'time_s':>12} {'time%':>7} "
        f"{'energy_j':>14} {'energy%':>8}  waterfall"
    )
    lines = [
        f"{attr.label} [{attr.scheme or '?'}] (source: {attr.source})",
        header,
        "-" * len(header),
    ]
    for row in attr.rows:
        marker = "*" if row.is_resilience else " "
        lines.append(
            f"{row.phase:<11}{marker} {row.time_s:>12.4f} "
            f"{row.time_share:>6.1%} {row.energy_j:>14.2f} "
            f"{row.energy_share:>7.1%}  {_bar(row.energy_share)}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'attributed':<12} {attr.attributed_time_s:>12.4f} "
        f"{'':>7} {attr.attributed_energy_j:>14.2f}"
    )
    lines.append(
        f"{'total':<12} {attr.total_time_s:>12.4f} "
        f"{'':>7} {attr.total_energy_j:>14.2f}"
    )
    lines.append(
        f"{'residual':<12} {attr.residual_time_s:>12.3e} "
        f"{'':>7} {attr.residual_energy_j:>14.3e}  "
        f"(rel {attr.residual_energy_rel:.2e})"
    )
    lines.append("  (* = resilience phase)")
    return "\n".join(lines)


def format_attribution_rollup(rollup: dict[str, PhaseAttribution]) -> str:
    """Per-scheme rollup waterfalls, one block per scheme."""
    if not rollup:
        return "no attributable cells"
    return "\n\n".join(format_attribution(attr) for attr in rollup.values())


def format_findings(findings: Iterable[Finding]) -> str:
    findings = list(findings)
    if not findings:
        return "no findings"
    lines = [str(f) for f in findings]
    n_err = sum(f.severity == "error" for f in findings)
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def format_span_tree(spans) -> str:
    """Nested span summary: names indented by depth."""
    rows = tree_summary(spans)
    if not rows:
        return "no spans"
    header = (
        f"{'span':<34} {'count':>6} {'total_s':>12} {'mean_s':>12} {'max_s':>12}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        name = "  " * row["depth"] + row["name"]
        lines.append(
            f"{name:<34} {row['count']:>6} {row['total_s']:>12.4f} "
            f"{row['mean_s']:>12.6f} {row['max_s']:>12.6f}"
        )
    return "\n".join(lines)


def format_critical_path(path: list[SpanNode]) -> str:
    """The longest-duration chain through the span tree."""
    if not path:
        return "no spans"
    lines = ["critical path:"]
    for depth, node in enumerate(path):
        attrs = dict(node.span.attrs)
        suffix = f"  {attrs}" if attrs else ""
        lines.append(
            f"{'  ' * depth}{node.name}  {node.duration_s:.6f}s"
            f" (self {node.self_time_s:.6f}s){suffix}"
        )
    return "\n".join(lines)


def format_run_diff(diff: RunDiff) -> str:
    lines = [f"diff: A={diff.label_a}  B={diff.label_b}"]
    if diff.identical:
        lines.append("runs are identical under the store schema")
        return "\n".join(lines)
    changed_scalars = [d for d in diff.scalars if d.changed]
    if changed_scalars:
        lines.append("scalars:")
        for d in changed_scalars:
            lines.append(
                f"  {d.name:<26} {d.a:>14.6g} -> {d.b:<14.6g} "
                f"(delta {d.delta:+.6g}, {d.rel:.2%})"
            )
    changed_phases = [d for d in diff.phases if d.changed]
    if changed_phases:
        lines.append("phases:")
        for d in changed_phases:
            lines.append(
                f"  {d.name:<26} {d.a:>14.6g} -> {d.b:<14.6g} "
                f"(delta {d.delta:+.6g})"
            )
    changed_spans = [d for d in diff.spans if d.changed]
    if changed_spans:
        lines.append("spans:")
        for d in changed_spans:
            lines.append(
                f"  {d.name:<26} count {d.count_a} -> {d.count_b}, "
                f"total {d.total_a:.6f}s -> {d.total_b:.6f}s"
            )
    changed_events = [d for d in diff.events if d.changed]
    if changed_events:
        lines.append("events:")
        for d in changed_events:
            lines.append(f"  {d.name:<26} {int(d.a)} -> {int(d.b)}")
    if diff.structural:
        lines.append("structural:")
        for change in diff.structural:
            lines.append(f"  {change}")
        if diff.structural_truncated:
            lines.append(f"  … truncated at {len(diff.structural)} changes")
    lines.append(f"{diff.n_changes} change(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def html_report(text: str) -> str:
    """A self-contained HTML page holding ``text`` verbatim: escaped in
    one ``<pre>``, so unescaping its content gives ``text`` back."""
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        "<title>repro report</title></head>\n"
        f"<body><pre>{escape(text)}</pre></body></html>\n"
    )


def _prom_name(name: str) -> str:
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for k in sorted(merged):
        v = str(merged[k]).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{_prom_name(k)}="{v}"')
    return "{" + ",".join(parts) + "}"


def prometheus_text(metrics: MetricsRegistry | dict) -> str:
    """Prometheus text-format exposition of a registry (or snapshot).

    Deterministic: series are emitted in sorted-snapshot order, so equal
    registries expose byte-identically.
    """
    snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)

    for series, value in snap.get("counters", {}).items():
        raw, labels = MetricsRegistry._parse_series(series)
        name = _prom_name(raw) + "_total"
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {value!r}")
    for series, value in snap.get("gauges", {}).items():
        raw, labels = MetricsRegistry._parse_series(series)
        name = _prom_name(raw)
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {value!r}")
    for series, data in snap.get("histograms", {}).items():
        raw, labels = MetricsRegistry._parse_series(series)
        name = _prom_name(raw)
        type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': repr(float(bound))})} "
                f"{cumulative}"
            )
        lines.append(
            f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} {data['n']}"
        )
        lines.append(f"{name}_sum{_prom_labels(labels)} {data['total']!r}")
        lines.append(f"{name}_count{_prom_labels(labels)} {data['n']}")
    return "\n".join(lines) + ("\n" if lines else "")
