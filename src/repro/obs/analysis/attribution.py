"""Phase attribution: time/energy waterfalls reconciled to the account.

The paper's claims are per-phase (Eqs. 1–16 split ``T_res``/``E_res``
into checkpoint, rollback, reconstruction and delay terms), so the
first question analysis must answer about any run is *where the time
and energy went* — and whether the per-phase story actually adds up to
the totals the EnergyAccount charged.

Attribution therefore always carries an explicit **residual**: the
account's totals minus the per-phase sums.  A solve writes its
``phase.*`` counters from its account when it closes, so on a traced
report this program wrote the residual is only summation order
(ulp-level); a larger one means an export whose books don't balance,
and the ``energy_balance`` detector will say so.  The residual is *reported*,
never folded into a phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.analysis.records import RunRecord
from repro.obs.metrics import MetricsRegistry
from repro.power.energy import PhaseTag

#: PhaseTag declaration order: solve first, resilience phases after —
#: the waterfall order every renderer uses.
PHASE_ORDER = tuple(tag.value for tag in PhaseTag)

_RESILIENCE = {tag.value for tag in PhaseTag if tag.is_resilience}


@dataclass(frozen=True)
class PhaseRow:
    """One phase's slice of the waterfall."""

    phase: str
    time_s: float
    energy_j: float
    time_share: float
    energy_share: float

    @property
    def is_resilience(self) -> bool:
        return self.phase in _RESILIENCE


@dataclass(frozen=True)
class PhaseAttribution:
    """Per-phase decomposition of one run (or one scheme's rollup)."""

    label: str
    scheme: str
    #: Where the rows came from: "metrics" (phase counters of a traced
    #: run), "account" (untraced report), or "rollup" (summed cells).
    source: str
    rows: tuple[PhaseRow, ...]
    #: Reference totals the rows are reconciled against.
    total_time_s: float
    total_energy_j: float

    @property
    def attributed_time_s(self) -> float:
        return sum(r.time_s for r in self.rows)

    @property
    def attributed_energy_j(self) -> float:
        return sum(r.energy_j for r in self.rows)

    @property
    def residual_time_s(self) -> float:
        return self.total_time_s - self.attributed_time_s

    @property
    def residual_energy_j(self) -> float:
        return self.total_energy_j - self.attributed_energy_j

    @property
    def residual_time_rel(self) -> float:
        if self.total_time_s == 0:
            return 0.0 if self.residual_time_s == 0 else float("inf")
        return abs(self.residual_time_s) / abs(self.total_time_s)

    @property
    def residual_energy_rel(self) -> float:
        if self.total_energy_j == 0:
            return 0.0 if self.residual_energy_j == 0 else float("inf")
        return abs(self.residual_energy_j) / abs(self.total_energy_j)

    @property
    def resilience_time_s(self) -> float:
        return sum(r.time_s for r in self.rows if r.is_resilience)

    @property
    def resilience_energy_j(self) -> float:
        return sum(r.energy_j for r in self.rows if r.is_resilience)


def phase_counters(metrics: MetricsRegistry) -> dict[str, tuple[float, float]]:
    """``{phase: (time_s, energy_j)}`` from the ``phase.*`` counters."""
    out: dict[str, list[float]] = {}
    snap = metrics.snapshot()
    for series, value in snap.get("counters", {}).items():
        name, labels = MetricsRegistry._parse_series(series)
        phase = labels.get("phase")
        if phase is None:
            continue
        if name == "phase.time_s":
            out.setdefault(phase, [0.0, 0.0])[0] += value
        elif name == "phase.energy_j":
            out.setdefault(phase, [0.0, 0.0])[1] += value
    return {p: (t, e) for p, (t, e) in out.items()}


def _rows(pairs: dict[str, tuple[float, float]], total_t: float, total_e: float):
    ordered = [p for p in PHASE_ORDER if p in pairs]
    ordered += sorted(p for p in pairs if p not in PHASE_ORDER)
    return tuple(
        PhaseRow(
            phase=p,
            time_s=pairs[p][0],
            energy_j=pairs[p][1],
            time_share=pairs[p][0] / total_t if total_t > 0 else 0.0,
            energy_share=pairs[p][1] / total_e if total_e > 0 else 0.0,
        )
        for p in ordered
    )


def attribute_record(record: RunRecord) -> PhaseAttribution:
    """Waterfall for one run, reconciled against its account's totals.

    Traced runs attribute from the ``phase.*`` metric counters.  A
    solve writes them from its account when it closes, so a report this
    program writes reconciles exactly (up to the summation order of the
    totals); the residual measures an export that does not (a payload
    edited or written elsewhere, read back).
    Untraced reports fall back to the account's own charges (residual
    identically zero by construction — stated, not hidden, via
    ``source="account"``).
    """
    tel = record.telemetry
    account = record.report.account
    pairs = phase_counters(tel.metrics) if tel is not None else {}
    source = "metrics"
    if not pairs:
        source = "account"
        pairs = {
            tag.value: (c.time_s, c.energy_j) for tag, c in account.charges.items()
        }
    return PhaseAttribution(
        label=record.label,
        scheme=record.scheme,
        source=source,
        rows=_rows(pairs, account.total_time_s, account.total_energy_j),
        total_time_s=account.total_time_s,
        total_energy_j=account.total_energy_j,
    )


def scheme_rollup(
    attributions: Iterable[PhaseAttribution],
) -> dict[str, PhaseAttribution]:
    """Per-scheme aggregate: phases, totals and residuals summed across
    every cell of the scheme, in first-seen scheme order."""
    grouped: dict[str, list[PhaseAttribution]] = {}
    for attr in attributions:
        grouped.setdefault(attr.scheme or "?", []).append(attr)
    out: dict[str, PhaseAttribution] = {}
    for scheme, attrs in grouped.items():
        pairs: dict[str, list[float]] = {}
        for attr in attrs:
            for row in attr.rows:
                acc = pairs.setdefault(row.phase, [0.0, 0.0])
                acc[0] += row.time_s
                acc[1] += row.energy_j
        total_t = sum(a.total_time_s for a in attrs)
        total_e = sum(a.total_energy_j for a in attrs)
        out[scheme] = PhaseAttribution(
            label=f"{scheme} ({len(attrs)} cells)",
            scheme=scheme,
            source="rollup",
            rows=_rows({p: tuple(v) for p, v in pairs.items()}, total_t, total_e),
            total_time_s=total_t,
            total_energy_j=total_e,
        )
    return out
