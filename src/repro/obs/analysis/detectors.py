"""Anomaly detectors: one table of run, campaign and fleet sanity checks.

A detector is a named function over :class:`~repro.obs.analysis.records.
RunRecord` evidence that yields :class:`Finding` objects; the
:data:`DETECTORS` table at the end of this module lists every one with
its scope, and each function's docstring is its one-line description.
``repro doctor`` runs every detector (or a named subset) and exits
non-zero when anything is found, so the contract is strict: **a healthy
run must produce zero findings**.  Detectors therefore only fire on
conditions that are inconsistent by construction (books that don't
balance, spans escaping their parent, a trace disagreeing with its own
report) or extreme by a wide margin (a 50× residual jump nowhere near a
fault), never on ordinary run-to-run variation.

``run`` detectors see one record at a time; ``campaign`` detectors see
the whole record list and can cross-reference cells (the
model-divergence detector pairs sim/analytic cells this way);
``fleet`` detectors see a campaign :class:`~repro.campaign.manifest.RunManifest`
(duck-typed — this module never imports the campaign package) and judge
the *execution* rather than the numerics: retry storms and cache
stampedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.analysis.attribution import attribute_record
from repro.obs.analysis.records import RunRecord
from repro.obs.analysis.spantree import build_span_tree, walk

#: Books must balance to this relative tolerance (a solve writes its
#: phase counters from its account bit for bit; only summation order
#: may differ, which is ulps).
ENERGY_BALANCE_REL_TOL = 1e-6

#: A residual growing by this factor in one iteration, with no fault or
#: restart within ±RESIDUAL_EVENT_SLACK iterations, is anomalous.
RESIDUAL_JUMP_FACTOR = 50.0
RESIDUAL_EVENT_SLACK = 3

#: Iterations without a new running-minimum residual (and without a
#: fault) before a run counts as stalled.
RESIDUAL_STALL_WINDOW = 1000

#: Spans must agree with their parents and the report to this relative
#: tolerance (absolute floor 1e-9 s).
SPAN_TIME_REL_TOL = 1e-9
SOLVE_SPAN_REL_TOL = 1e-6

#: Retries are a storm when there are at least RETRY_STORM_MIN of them
#: *and* they amount to this fraction of the campaign's computed cells.
RETRY_STORM_MIN = 3
RETRY_STORM_RATIO = 0.5

#: Store overwrites (a put replacing an existing row — compute repeated
#: for a banked cell) are a stampede past both thresholds.
CACHE_STAMPEDE_MIN = 4
CACHE_STAMPEDE_RATIO = 0.5


@dataclass(frozen=True)
class Finding:
    """One detector hit on one cell."""

    detector: str
    severity: str  # "error" | "warning"
    cell: str
    message: str
    value: float | None = None
    threshold: float | None = None

    def __str__(self) -> str:
        extra = ""
        if self.value is not None:
            extra = f" (value={self.value:.6g}"
            if self.threshold is not None:
                extra += f", threshold={self.threshold:.6g}"
            extra += ")"
        return f"[{self.severity}] {self.cell}: {self.detector}: {self.message}{extra}"


def describe(check) -> str:
    """A detector's one-line description: its docstring, reflowed."""
    return " ".join(check.__doc__.split())


def run_detectors(
    records: Iterable[RunRecord],
    names: Iterable[str] | None = None,
    manifest=None,
) -> list[Finding]:
    """Run detectors (all, or the named subset) over the records.

    ``manifest`` is an optional campaign :class:`~repro.campaign.
    manifest.RunManifest`; fleet-scoped detectors are skipped without
    one (there is no execution evidence to judge).
    """
    records = list(records)
    names = list(DETECTORS) if names is None else list(names)
    unknown = sorted(set(names) - set(DETECTORS))
    if unknown:
        raise ValueError(
            f"unknown detectors: {', '.join(unknown)} "
            f"(have: {', '.join(DETECTORS)})"
        )
    findings: list[Finding] = []
    for name in names:
        scope, check = DETECTORS[name]
        if scope == "campaign":
            findings.extend(check(records))
        elif scope == "fleet":
            if manifest is not None:
                findings.extend(check(manifest))
        else:
            for record in records:
                findings.extend(check(record))
    return findings


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------
def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def energy_balance(record: RunRecord) -> Iterator[Finding]:
    """per-phase time/energy counters must reconcile with the account
    totals (and the solver.energy_j gauge with the report)"""
    attr = attribute_record(record)
    for kind, rel in (
        ("time", attr.residual_time_rel),
        ("energy", attr.residual_energy_rel),
    ):
        if rel > ENERGY_BALANCE_REL_TOL:
            yield Finding(
                "energy_balance",
                "error",
                record.label,
                f"per-phase {kind} does not reconcile with the account "
                f"total (residual {rel:.3e} relative)",
                value=rel,
                threshold=ENERGY_BALANCE_REL_TOL,
            )
    tel = record.telemetry
    gauges = {} if tel is None else tel.metrics.snapshot().get("gauges", {})
    if "solver.energy_j" in gauges:
        rel = _rel_gap(float(gauges["solver.energy_j"]), record.report.energy_j)
        if rel > ENERGY_BALANCE_REL_TOL:
            yield Finding(
                "energy_balance",
                "error",
                record.label,
                f"solver.energy_j gauge disagrees with the report "
                f"({rel:.3e} relative)",
                value=rel,
                threshold=ENERGY_BALANCE_REL_TOL,
            )


def _excused_iterations(record: RunRecord) -> set[int]:
    """Iterations where a residual excursion is expected: faults and
    restarts, padded by ±RESIDUAL_EVENT_SLACK."""
    centers = {ev.iteration for ev in record.report.faults}
    if record.telemetry is not None:
        centers.update(e.iteration for e in record.telemetry.events.faults)
        centers.update(e.iteration for e in record.telemetry.events.restarts)
    excused: set[int] = set()
    for c in centers:
        excused.update(range(c - RESIDUAL_EVENT_SLACK, c + RESIDUAL_EVENT_SLACK + 1))
    return excused


def residual_convergence(record: RunRecord) -> Iterator[Finding]:
    """no unexplained residual jumps (>50x in one iteration away from
    any fault/restart) and no 1000-iteration stalls"""
    history = [float(v) for v in record.report.residual_history]
    excused = _excused_iterations(record)
    for i in range(1, len(history)):
        prev, cur = history[i - 1], history[i]
        # history[i] is the residual after iteration i+1
        if prev > 0 and cur > RESIDUAL_JUMP_FACTOR * prev and (i + 1) not in excused:
            yield Finding(
                "residual_convergence",
                "error",
                record.label,
                f"residual jumped {cur / prev:.1f}x at iteration {i + 1} "
                "with no fault or restart nearby",
                value=cur / prev,
                threshold=RESIDUAL_JUMP_FACTOR,
            )
            break  # one finding per run; a broken recurrence cascades
    # stall: the running minimum stopped improving for a whole window
    if len(history) > RESIDUAL_STALL_WINDOW:
        best = float("inf")
        last_improvement = 0
        for i, v in enumerate(history):
            if v < best:
                best = v
                last_improvement = i
        gap = len(history) - 1 - last_improvement
        fault_in_gap = any(it > last_improvement + 1 for it in excused)
        if gap >= RESIDUAL_STALL_WINDOW and not fault_in_gap:
            yield Finding(
                "residual_convergence",
                "warning",
                record.label,
                f"residual has not improved for {gap} iterations "
                f"(best {best:.3e} at iteration {last_improvement + 1})",
                value=float(gap),
                threshold=float(RESIDUAL_STALL_WINDOW),
            )


def schedule_drift(record: RunRecord) -> Iterator[Finding]:
    """realized fault events must match the report's fault list and the
    schedule the config implies"""
    report, tel = record.report, record.telemetry
    if tel is not None and tel.events.faults:
        traced = sorted(
            (e.iteration, e.victim_rank) for e in tel.events.faults
        )
        reported = sorted(
            (ev.iteration, ev.victim_rank) for ev in report.faults
        )
        if traced != reported:
            yield Finding(
                "schedule_drift",
                "error",
                record.label,
                f"trace records faults {traced} but the report says "
                f"{reported}",
            )
    if report.baseline_iters:
        from repro.faults.events import FaultScope
        from repro.faults.schedule import EvenlySpacedSchedule

        cfg = record.config
        expected = EvenlySpacedSchedule(
            n_faults=cfg.n_faults,
            seed=cfg.seed,
            scope=FaultScope(cfg.fault_scope),
        ).events(nranks=cfg.nranks, horizon_iters=report.baseline_iters)
        want = sorted(e.iteration for e in expected if e.iteration <= report.iterations)
        got = sorted(ev.iteration for ev in report.faults)
        if want != got:
            yield Finding(
                "schedule_drift",
                "error",
                record.label,
                f"config implies faults at iterations {want} but the run "
                f"realized {got}",
            )


def _tol(t: float) -> float:
    return SPAN_TIME_REL_TOL * max(1.0, abs(t))


def span_integrity(record: RunRecord) -> Iterator[Finding]:
    """spans must have non-negative duration, stay inside their parent,
    not overlap siblings, and the solve span must match the run's total
    time"""
    tel = record.telemetry
    if tel is None or not tel.spans.spans:
        return
    for s in tel.spans.spans:
        if s.t_end < s.t_start - _tol(s.t_start):
            yield Finding(
                "span_integrity",
                "error",
                record.label,
                f"span {s.name!r} has negative duration "
                f"({s.t_start!r} -> {s.t_end!r})",
                value=s.duration_s,
            )
    roots = build_span_tree(tel.spans.spans)
    for node, _ in walk(roots):
        parent = node.span
        prev_end = None
        for child_node in node.children:
            child = child_node.span
            if (
                child.t_start < parent.t_start - _tol(parent.t_start)
                or child.t_end > parent.t_end + _tol(parent.t_end)
            ):
                yield Finding(
                    "span_integrity",
                    "error",
                    record.label,
                    f"span {child.name!r} [{child.t_start!r}, {child.t_end!r}] "
                    f"escapes its parent {parent.name!r} "
                    f"[{parent.t_start!r}, {parent.t_end!r}]",
                )
            if prev_end is not None and child.t_start < prev_end - _tol(prev_end):
                yield Finding(
                    "span_integrity",
                    "error",
                    record.label,
                    f"sibling spans overlap inside {parent.name!r}: "
                    f"{child.name!r} starts at {child.t_start!r} before "
                    f"the previous sibling ends at {prev_end!r}",
                )
            prev_end = max(prev_end, child.t_end) if prev_end is not None else child.t_end
    # the root solve span must cover the run
    reference = record.report.time_s
    for node in roots:
        if node.name != "solve":
            continue
        rel = _rel_gap(node.duration_s, reference)
        if rel > SOLVE_SPAN_REL_TOL:
            yield Finding(
                "span_integrity",
                "error",
                record.label,
                f"solve span covers {node.duration_s!r}s but the run "
                f"took {reference!r}s ({rel:.3e} relative gap)",
                value=rel,
                threshold=SOLVE_SPAN_REL_TOL,
            )


def model_divergence(records: list[RunRecord]) -> Iterator[Finding]:
    """paired sim/analytic cells must agree per Section-3 term within
    the validation drift threshold"""
    from repro.engines.validate import (
        DEFAULT_DRIFT_THRESHOLD,
        term_drift_rows_from_groups,
    )

    groups: dict = {}
    for r in records:
        groups.setdefault(r.config, {})[r.scheme] = r.report
    for row in term_drift_rows_from_groups(list(groups.items())):
        if row.drift > DEFAULT_DRIFT_THRESHOLD:
            yield Finding(
                "model_divergence",
                "error",
                f"{row.matrix}/r{row.nranks}/f{row.n_faults}/{row.scheme}",
                f"term {row.term} diverges: sim {row.sim:.4f} vs "
                f"analytic {row.analytic:.4f}",
                value=row.drift,
                threshold=DEFAULT_DRIFT_THRESHOLD,
            )


def retry_storm(manifest) -> Iterator[Finding]:
    """retry attempts must stay a small fraction of the campaign's
    computed cells"""
    c = manifest.counters
    retries = int(c.get("retries", 0))
    computed = int(c.get("ran", 0)) + int(c.get("failed", 0))
    threshold = RETRY_STORM_RATIO * max(1, computed)
    if retries >= RETRY_STORM_MIN and retries >= threshold:
        yield Finding(
            "retry_storm",
            "warning",
            f"fleet/{manifest.run_id}",
            f"{retries} retries across {computed} computed cells — the "
            "grid is fighting transient failures, not running",
            value=float(retries),
            threshold=max(float(RETRY_STORM_MIN), threshold),
        )


def cache_stampede(manifest) -> Iterator[Finding]:
    """a campaign must not keep overwriting results the store already
    holds (repeated compute for banked cells)"""
    c = manifest.counters
    overwrites = int(c.get("store_overwrites", 0))
    ran = int(c.get("ran", 0))
    threshold = CACHE_STAMPEDE_RATIO * max(1, ran)
    if overwrites >= CACHE_STAMPEDE_MIN and overwrites >= threshold:
        yield Finding(
            "cache_stampede",
            "warning",
            f"fleet/{manifest.run_id}",
            f"{overwrites} of {ran} fresh results overwrote rows the "
            "store already held — resume is off or several campaigns "
            "are racing one store",
            value=float(overwrites),
            threshold=max(float(CACHE_STAMPEDE_MIN), threshold),
        )


#: Every detector by name, in name order: ``name -> (scope, check)``.
DETECTORS = {
    "cache_stampede": ("fleet", cache_stampede),
    "energy_balance": ("run", energy_balance),
    "model_divergence": ("campaign", model_divergence),
    "residual_convergence": ("run", residual_convergence),
    "retry_storm": ("fleet", retry_storm),
    "schedule_drift": ("run", schedule_drift),
    "span_integrity": ("run", span_integrity),
}
