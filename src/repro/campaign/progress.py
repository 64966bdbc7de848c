"""Campaign progress reporting and summaries.

:class:`ProgressReporter` prints one line per finished cell with the
running count and the ETA its campaign's
:class:`~repro.campaign.fleet.FleetMonitor` keeps.
:func:`format_summary` renders the structured wrap-up the CLI prints:
a per-cell status table (cache status included)
plus aggregate counters — cells run / cached / failed, wall time, and
the aggregate speedup (compute seconds represented per wall second,
counting the banked cost of cached cells).
"""

from __future__ import annotations

import sys

from repro.campaign.runner import CampaignResult, CellResult
from repro.campaign.spec import AXES, axis_mark
from repro.harness.normalize import normalize_reports
from repro.harness.reporting import format_table
from repro.obs.term import hms as _hms


class ProgressReporter:
    """Streams one status line per finished cell: the count and ETA are
    the runner's monitor's, read after it has settled the cell."""

    def __init__(self, monitor, *, stream=None, enabled: bool = True) -> None:
        self.monitor = monitor
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled

    def cell_done(self, result: CellResult) -> None:
        if not self.enabled:
            return
        done, total = self.monitor.done, self.monitor.total
        width = len(str(total))
        line = (
            f"[{done:>{width}}/{total}] "
            f"{result.status:<6} {result.cell.label}"
        )
        if result.status == "ran":
            line += f" ({result.elapsed_s:.2f}s)"
            if result.attempts > 1:
                line += f" [attempt {result.attempts}]"
        elif result.status == "failed":
            if result.elapsed_s:
                line += f" ({result.elapsed_s:.2f}s wasted)"
            line += f" — {result.error}"
        eta = self.monitor.eta_s()
        if eta is not None and done < total:
            line += f"  eta {_hms(eta)}"
        print(line, file=self.stream, flush=True)


# ----------------------------------------------------------------------
def summary_counters(result: CampaignResult) -> dict:
    """The campaign's aggregate counters as a plain dict."""
    wall = result.wall_s
    return {
        "cells": len(result.results),
        "ran": result.n_ran,
        "cached": result.n_cached,
        "failed": result.n_failed,
        "wall_s": wall,
        "compute_s": result.compute_s,
        "speedup": (result.compute_s / wall) if wall > 0 else 0.0,
    }


def _swept_axes(spec) -> list[str]:
    """The :data:`~repro.campaign.spec.AXES` that tell the spec's grid
    points apart: every axis with more than one value."""
    return [axis for axis in AXES if len(getattr(spec, axis)) > 1]


#: The axes the per-cell summary always shows, swept or not.
_SUMMARY_AXES = ("matrices", "nranks", "fault_loads", "seeds")


def format_summary(result: CampaignResult) -> str:
    """Per-cell status table plus aggregate counters.  Besides the
    matrix, rank count, fault load and seed, each swept axis gets a
    column, so no two grid points share a row's identity."""
    swept = [a for a in _swept_axes(result.spec) if a not in _SUMMARY_AXES]
    rows = []
    for r in result.results:
        c = r.cell.config
        rep = r.report
        rows.append(
            [
                c.matrix,
                c.nranks,
                c.n_faults,
                c.seed,
                *(getattr(c, AXES[axis][0]) for axis in swept),
                r.cell.scheme,
                r.status,
                r.attempts,
                rep.iterations if rep is not None else "-",
                f"{rep.time_s:.3f}" if rep is not None else "-",
                # failed cells show the compute they wasted before giving
                # up (elapsed_s carries it since the fleet-telemetry PR)
                f"{r.elapsed_s:.2f}" if r.ok or r.elapsed_s else "-",
            ]
        )
    table = format_table(
        [
            "matrix",
            "ranks",
            "faults",
            "seed",
            *(AXES[axis][0] for axis in swept),
            "scheme",
            "status",
            "tries",
            "iters",
            "sim_time_s",
            "cell_s",
        ],
        rows,
        title=f"campaign {result.spec.name!r}: per-cell results",
    )
    s = summary_counters(result)
    totals = (
        f"{s['cells']} cells: {s['ran']} ran, {s['cached']} cached, "
        f"{s['failed']} failed | wall {s['wall_s']:.1f}s, compute "
        f"{s['compute_s']:.1f}s, aggregate speedup {s['speedup']:.1f}x "
        f"({result.workers} workers)"
    )
    return f"{table}\n\n{totals}"


def format_telemetry_summary(result: CampaignResult) -> str:
    """Render the campaign's merged telemetry rollup.

    Campaign counters (cells by status, cache hits/misses, retries,
    throughput) followed by the worker-side metrics summed across every
    traced cell — most usefully the per-scheme recovery-latency
    histograms, rendered as one count/mean/max-bucket row per series.
    """
    rollup = result.telemetry_rollup()
    snap = rollup.snapshot()
    lines = ["campaign telemetry rollup:"]
    for series, value in snap["counters"].items():
        lines.append(f"  {series} = {value:g}")
    for series, value in snap["gauges"].items():
        lines.append(f"  {series} = {value:.4g}")
    hists = snap["histograms"]
    if hists:
        rows = []
        for series, data in hists.items():
            n = data["n"]
            mean = data["total"] / n if n else 0.0
            bounds = [*data["buckets"], float("inf")]
            occupied = [b for b, c in zip(bounds, data["counts"]) if c]
            le_max = f"{occupied[-1]:g}" if occupied else "-"
            rows.append([series, n, f"{mean:.3g}", le_max])
        lines.append("")
        lines.append(
            format_table(
                ["histogram", "n", "mean", "max_le"],
                rows,
                title="latency/cost histograms (seconds)",
            )
        )
    return "\n".join(lines)


def format_attribution_summary(result: CampaignResult) -> str:
    """Per-scheme phase waterfalls plus anomaly flags for the wrap-up.

    Renders :meth:`CampaignResult.attribution_summary` and appends any
    detector findings, so an anomalous cell is flagged right where the
    campaign summary is read.
    """
    from repro.obs.analysis.render import format_attribution_rollup, format_findings

    blocks = [format_attribution_rollup(result.attribution_summary())]
    findings = result.anomalies()
    if findings:
        blocks.append("anomalies:")
        blocks.append(format_findings(findings))
    else:
        blocks.append("anomalies: none")
    return "\n\n".join(blocks)


def format_normalized_tables(result: CampaignResult) -> str:
    """The paper-style normalized tables for every finished group.

    One table per metric (iterations / time / energy), grid points as
    rows (the matrix, marked with the value of every other swept axis)
    and schemes as columns, each cell normalized to its group's
    fault-free baseline — the acceptance surface for serial-vs-parallel
    equality.
    """
    groups = [
        (config, reports)
        for config, reports in result.groups()
        if "FF" in reports and len(reports) > 1
    ]
    if not groups:
        return "(no complete experiment groups to normalize)"
    schemes = [s for s in result.spec.schemes if s != "FF"]
    marked = [a for a in _swept_axes(result.spec) if a != "matrices"]
    blocks = []
    for metric in ("iterations", "time", "energy"):
        rows = []
        for config, reports in groups:
            norm = normalize_reports(reports)
            label = " ".join(
                [config.matrix, *(axis_mark(axis, config) for axis in marked)]
            )
            rows.append(
                [
                    label,
                    *(
                        round(getattr(norm[s], metric), 6) if s in norm else "-"
                        for s in schemes
                    ),
                ]
            )
        blocks.append(
            format_table(
                ["matrix", *schemes],
                rows,
                title=f"normalized {metric} (FF = 1)",
                precision=3,
            )
        )
    return "\n\n".join(blocks)
