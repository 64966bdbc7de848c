"""JSON codec for :class:`~repro.core.report.SolveReport`.

:func:`report_to_dict` is the canonical JSON shape of a report: HTTP
bodies, run diffs and the result store all use it.  JSON keeps it
diffable and stable across Python versions (unlike pickles), and floats
survive the round trip exactly (``json`` emits ``repr``-style shortest
decimals, which parse back to the identical double), so a decoded
report is numerically indistinguishable from a fresh run.  The store
writes this dict as a frame's JSON header with ``residual_history``
lifted out into raw float64 bytes (:mod:`repro.campaign.store`), and
hands :func:`report_from_dict` the decoded array in its place.

Telemetry (the solver's event stream, spans and metrics, attached at
``details["telemetry"]`` with the event log aliased at
``details["trace"]``) is encoded as a first-class ``telemetry`` field
and reconstructed on load, so a traced cell round-trips its full
observability bundle through the store.  The only lossy corner is the
rest of ``details``: values that are not JSON-shaped are dropped and
recorded under ``details["_dropped"]``, and tuples come back as lists.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import TrafficCounters
from repro.cluster.simtime import Phase, PhaseLog
from repro.core.report import SolveReport
from repro.faults.events import FaultClass, FaultEvent, FaultScope
from repro.obs.export import telemetry_from_dict, telemetry_to_dict
from repro.power.energy import Charge, EnergyAccount, PhaseTag
from repro.power.rapl import RaplDomain, RaplMeter


def _sanitize(value, dropped: list[str], path: str):
    """Best-effort conversion of ``details`` entries to JSON values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_sanitize(v, dropped, f"{path}[]") for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, dropped, f"{path}[]") for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                dropped.append(f"{path}.{k!r}")
                continue
            out[k] = _sanitize(v, dropped, f"{path}.{k}")
        return out
    dropped.append(path)
    return None


def _details_to_json(details: dict) -> dict:
    dropped: list[str] = []
    out = {}
    for key, value in details.items():
        sanitized = _sanitize(value, dropped, key)
        if sanitized is None and value is not None and key in dropped:
            continue  # the whole value was unserializable
        out[key] = sanitized
    if dropped:
        out["_dropped"] = sorted(dropped)
    return out


def report_to_dict(report: SolveReport) -> dict:
    """Encode a report as a JSON-shaped dict."""
    telemetry = report.details.get("telemetry")
    details = {
        k: v for k, v in report.details.items() if k not in ("telemetry", "trace")
    }
    return {
        "scheme": report.scheme,
        "converged": report.converged,
        "iterations": report.iterations,
        "final_relative_residual": report.final_relative_residual,
        "residual_history": np.asarray(
            report.residual_history, dtype=np.float64
        ).tolist(),
        "time_s": report.time_s,
        "baseline_iters": report.baseline_iters,
        # charges as an ordered list, not a mapping: totals like
        # ``energy_j`` sum the charges in dict insertion order, and JSON
        # objects don't guarantee it survives (sort_keys would reorder),
        # which would perturb the sums by an ulp
        "account": [
            [tag.value, c.time_s, c.energy_j]
            for tag, c in report.account.charges.items()
        ],
        "rapl": {
            "domain": report.rapl.domain.value,
            "phases": [
                [p.tag, p.t_start, p.t_end, p.power_w]
                for p in report.rapl.log.phases
            ],
        },
        "faults": [
            {
                "iteration": ev.iteration,
                "victim_rank": ev.victim_rank,
                "fault_class": ev.fault_class.name,
                "scope": ev.scope.value,
                # Single-victim events keep the pre-victim-set wire
                # shape byte-for-byte; the key only appears for
                # concurrent multi-rank events.
                **(
                    {"victims": list(ev.victims)}
                    if len(ev.victims) > 1
                    else {}
                ),
            }
            for ev in report.faults
        ],
        "traffic": None
        if report.traffic is None
        else {
            "bytes_p2p": report.traffic.bytes_p2p,
            "bytes_collective": report.traffic.bytes_collective,
            "messages": report.traffic.messages,
            "collectives": report.traffic.collectives,
        },
        "details": _details_to_json(details),
        "telemetry": None if telemetry is None else telemetry_to_dict(telemetry),
    }


def report_from_dict(data: dict) -> SolveReport:
    """Decode :func:`report_to_dict` output."""
    account = EnergyAccount()
    for tag, time_s, energy_j in data["account"]:
        account.charges[PhaseTag(tag)] = Charge(time_s=time_s, energy_j=energy_j)
    rapl = RaplMeter(
        domain=RaplDomain(data["rapl"]["domain"]),
        log=PhaseLog(
            [
                Phase(tag, t_start, t_end, power_w)
                for tag, t_start, t_end, power_w in data["rapl"]["phases"]
            ]
        ),
    )
    faults = [
        FaultEvent(
            iteration=ev["iteration"],
            victim_rank=ev["victim_rank"],
            fault_class=FaultClass[ev["fault_class"]],
            scope=FaultScope(ev["scope"]),
            # Older payloads have no "victims" key: the event
            # normalizes the empty tuple to (victim_rank,).
            victims=tuple(ev.get("victims", ())),
        )
        for ev in data["faults"]
    ]
    traffic = (
        None
        if data["traffic"] is None
        else TrafficCounters(**data["traffic"])
    )
    details = dict(data["details"])
    if data.get("telemetry") is not None:
        telemetry = telemetry_from_dict(data["telemetry"])
        details["telemetry"] = telemetry
        details["trace"] = telemetry.events
    return SolveReport(
        scheme=data["scheme"],
        converged=data["converged"],
        iterations=data["iterations"],
        final_relative_residual=data["final_relative_residual"],
        residual_history=np.asarray(data["residual_history"], dtype=np.float64),
        time_s=data["time_s"],
        account=account,
        rapl=rapl,
        faults=faults,
        traffic=traffic,
        baseline_iters=data["baseline_iters"],
        details=details,
    )
