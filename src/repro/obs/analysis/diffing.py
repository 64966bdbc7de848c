"""Run diffing: structural comparison of two runs' reports + telemetry.

The diff reuses the store's own JSON schema walk
(:func:`repro.campaign.serialize.report_to_dict`), so anything the
store can persist, the differ can compare — and a field added to the
payload schema automatically shows up in diffs.  Three views layer on
top of the raw walk:

* **scalars** — the headline metrics (iterations, time, energy, power,
  T_res/E_res, convergence) as explicit deltas;
* **phases** — per-phase time/energy deltas from the attribution rows;
* **spans/events** — per-name span count/total-duration deltas and
  per-kind event count deltas, aligned by name rather than position so
  an extra recovery reads as "+1 recovery.lsi", not as a shifted wall
  of changed rows.

Long numeric arrays (residual histories) are summarized as one change —
length and first divergent index — and the structural walk is capped,
so a diff is always a screenful, not a dump.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.analysis.attribution import attribute_record
from repro.obs.analysis.records import RunRecord

#: Structural changes reported before truncation.
MAX_STRUCTURAL_CHANGES = 200

#: Keys excluded from the structural walk: diffed separately (telemetry,
#: residual_history) or meaningless to diff (nothing currently).
_EXCLUDED_KEYS = {"telemetry", "residual_history"}


@dataclass(frozen=True)
class MetricDelta:
    """One named value in both runs."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        scale = max(abs(self.a), abs(self.b))
        return abs(self.delta) / scale if scale > 0 else 0.0

    @property
    def changed(self) -> bool:
        return self.a != self.b


@dataclass(frozen=True)
class SpanDelta:
    """One span name's aggregate presence in both runs."""

    name: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float

    @property
    def changed(self) -> bool:
        return self.count_a != self.count_b or self.total_a != self.total_b


@dataclass(frozen=True)
class RunDiff:
    """Everything that differs between two runs."""

    label_a: str
    label_b: str
    scalars: tuple[MetricDelta, ...]
    phases: tuple[MetricDelta, ...]
    spans: tuple[SpanDelta, ...]
    events: tuple[MetricDelta, ...]
    structural: tuple[str, ...]
    structural_truncated: bool = False

    @property
    def n_changes(self) -> int:
        return (
            sum(d.changed for d in self.scalars)
            + sum(d.changed for d in self.phases)
            + sum(d.changed for d in self.spans)
            + sum(d.changed for d in self.events)
            + len(self.structural)
        )

    @property
    def identical(self) -> bool:
        return self.n_changes == 0


def _walk(a, b, path: str, out: list[str]) -> None:
    if len(out) > MAX_STRUCTURAL_CHANGES:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if path == "" and key in _EXCLUDED_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a:
                out.append(f"{sub}: only in B")
            elif key not in b:
                out.append(f"{sub}: only in A")
            else:
                _walk(a[key], b[key], sub, out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if all(isinstance(v, (int, float)) for v in a + b) and (
            len(a) > 8 or len(b) > 8
        ):
            # long numeric array: one summarized change
            first = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y), None
            )
            if len(a) != len(b) or first is not None:
                where = f"first diverges at [{first}]" if first is not None else "same prefix"
                out.append(
                    f"{path}: numeric array len {len(a)} -> {len(b)}, {where}"
                )
            return
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} -> {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out)
        return
    if a != b:
        out.append(f"{path}: {a!r} -> {b!r}")


def _scalar_deltas(a: RunRecord, b: RunRecord) -> tuple[MetricDelta, ...]:
    ra, rb = a.report, b.report
    pairs = [
        ("iterations", float(ra.iterations), float(rb.iterations)),
        ("converged", float(ra.converged), float(rb.converged)),
        ("final_relative_residual",
         ra.final_relative_residual, rb.final_relative_residual),
        ("time_s", ra.time_s, rb.time_s),
        ("energy_j", ra.energy_j, rb.energy_j),
        ("average_power_w", ra.average_power_w, rb.average_power_w),
        ("resilience_time_s", ra.resilience_time_s, rb.resilience_time_s),
        ("resilience_energy_j", ra.resilience_energy_j, rb.resilience_energy_j),
        ("n_faults", float(ra.n_faults), float(rb.n_faults)),
    ]
    return tuple(MetricDelta(n, x, y) for n, x, y in pairs)


def _phase_deltas(a: RunRecord, b: RunRecord) -> tuple[MetricDelta, ...]:
    pa = {r.phase: r for r in attribute_record(a).rows}
    pb = {r.phase: r for r in attribute_record(b).rows}
    out = []
    for phase in sorted(set(pa) | set(pb)):
        ta = pa[phase].time_s if phase in pa else 0.0
        tb = pb[phase].time_s if phase in pb else 0.0
        ea = pa[phase].energy_j if phase in pa else 0.0
        eb = pb[phase].energy_j if phase in pb else 0.0
        out.append(MetricDelta(f"phase.{phase}.time_s", ta, tb))
        out.append(MetricDelta(f"phase.{phase}.energy_j", ea, eb))
    return tuple(out)


def _span_deltas(a: RunRecord, b: RunRecord) -> tuple[SpanDelta, ...]:
    def agg(record: RunRecord) -> dict[str, tuple[int, float]]:
        if record.telemetry is None:
            return {}
        out: dict[str, list[float]] = {}
        for s in record.telemetry.spans.spans:
            acc = out.setdefault(s.name, [0, 0.0])
            acc[0] += 1
            acc[1] += s.duration_s
        return {n: (int(c), t) for n, (c, t) in out.items()}

    sa, sb = agg(a), agg(b)
    return tuple(
        SpanDelta(
            name=name,
            count_a=sa.get(name, (0, 0.0))[0],
            count_b=sb.get(name, (0, 0.0))[0],
            total_a=sa.get(name, (0, 0.0))[1],
            total_b=sb.get(name, (0, 0.0))[1],
        )
        for name in sorted(set(sa) | set(sb))
    )


def _event_deltas(a: RunRecord, b: RunRecord) -> tuple[MetricDelta, ...]:
    def counts(record: RunRecord) -> dict[str, int]:
        if record.telemetry is None:
            return {}
        out: dict[str, int] = {}
        for e in record.telemetry.events.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    ca, cb = counts(a), counts(b)
    return tuple(
        MetricDelta(f"events.{kind}", float(ca.get(kind, 0)), float(cb.get(kind, 0)))
        for kind in sorted(set(ca) | set(cb))
    )


def diff_runs(a: RunRecord, b: RunRecord) -> RunDiff:
    """Structural + metric diff of two runs (A is the baseline side)."""
    from repro.campaign.serialize import report_to_dict

    structural: list[str] = []
    _walk(report_to_dict(a.report), report_to_dict(b.report), "", structural)
    truncated = len(structural) > MAX_STRUCTURAL_CHANGES
    return RunDiff(
        label_a=a.label,
        label_b=b.label,
        scalars=_scalar_deltas(a, b),
        phases=_phase_deltas(a, b),
        spans=_span_deltas(a, b),
        events=_event_deltas(a, b),
        structural=tuple(structural[:MAX_STRUCTURAL_CHANGES]),
        structural_truncated=truncated,
    )
