"""The unit of analysis: one labelled run with whatever evidence it has.

Every analysis entry point — attribution, detectors, diffing — consumes
:class:`RunRecord` objects so the same code runs over a live
:class:`~repro.core.report.SolveReport`, a campaign's cells, a store on
disk, or a bare JSONL trace with no report at all.  A record carries up
to three layers of evidence (report, telemetry, config); each analysis
uses what is present and degrades explicitly when something is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.export import load_trace_jsonl
from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.runner import CampaignResult
    from repro.campaign.store import ResultStore
    from repro.core.report import SolveReport
    from repro.harness.experiment import ExperimentConfig


@dataclass(frozen=True)
class RunRecord:
    """One run under analysis: label plus report/telemetry/config."""

    label: str
    report: "SolveReport | None" = None
    telemetry: Telemetry | None = None
    config: "ExperimentConfig | None" = None

    @property
    def scheme(self) -> str:
        """Best-effort scheme name: the report's, else the root solve
        span's ``scheme`` attribute, else empty."""
        if self.report is not None:
            return self.report.scheme
        if self.telemetry is not None:
            for s in self.telemetry.spans.of_name("solve"):
                attrs = dict(s.attrs)
                if "scheme" in attrs:
                    return str(attrs["scheme"])
        return ""


def record_from_report(
    label: str, report: "SolveReport", config: "ExperimentConfig | None" = None
) -> RunRecord:
    """Wrap a report, picking up its attached telemetry (if traced)."""
    return RunRecord(
        label=label,
        report=report,
        telemetry=report.details.get("telemetry"),
        config=config,
    )


def records_from_store(store: "ResultStore") -> list[RunRecord]:
    """One record per stored entry, labelled by cell label."""
    return [
        record_from_report(e.cell.label, e.report, e.cell.config)
        for e in store.entries()
    ]


def records_from_campaign(result: "CampaignResult") -> list[RunRecord]:
    """One record per successful cell of a finished campaign."""
    return [
        record_from_report(r.cell.label, r.report, r.cell.config)
        for r in result.results
        if r.ok and r.report is not None
    ]


def records_from_jsonl(path: str | Path) -> list[RunRecord]:
    """Telemetry-only records from an exported JSONL trace."""
    return [
        RunRecord(label=label, telemetry=tel)
        for label, tel in load_trace_jsonl(path).items()
    ]


def select_records(
    records: Iterable[RunRecord],
    *,
    matrix: str | None = None,
    scheme: str | None = None,
) -> list[RunRecord]:
    """Filter by substring-in-label matrix and exact scheme name."""
    out = []
    for r in records:
        if matrix is not None and matrix not in r.label:
            continue
        if scheme is not None and r.scheme != scheme:
            continue
        out.append(r)
    return out
