"""The unit of analysis: one labelled run, its report and its config.

Every analysis entry point — attribution, detectors, diffing — consumes
:class:`RunRecord` objects, built the same way from a store's entries,
a trace export's payload lines or a campaign's cells: each of those
holds a cell (config + scheme) and its full
:class:`~repro.core.report.SolveReport`, so every reader sees the same
record.  A traced run's telemetry is the one its report carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.report import SolveReport
    from repro.harness.experiment import ExperimentConfig


@dataclass(frozen=True)
class RunRecord:
    """One run under analysis: its cell label, report and config."""

    label: str
    report: "SolveReport"
    config: "ExperimentConfig"

    @property
    def telemetry(self) -> Telemetry | None:
        """The report's telemetry bundle; ``None`` for an untraced run."""
        return self.report.details.get("telemetry")

    @property
    def scheme(self) -> str:
        return self.report.scheme


def records_from_cells(items: Iterable) -> list[RunRecord]:
    """One record per item carrying a ``cell`` and its ``report``: a
    store entry (from a store or a trace export) or a campaign's
    successful cell result."""
    return [RunRecord(i.cell.label, i.report, i.cell.config) for i in items]


def select_records(
    records: Iterable[RunRecord],
    *,
    matrix: str | None = None,
    scheme: str | None = None,
) -> list[RunRecord]:
    """The records of exactly this matrix and/or this scheme."""
    return [
        r
        for r in records
        if (matrix is None or r.config.matrix == matrix)
        and (scheme is None or r.scheme == scheme)
    ]
