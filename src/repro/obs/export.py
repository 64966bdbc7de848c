"""Telemetry codecs: typed events and whole bundles as JSON, and a CSV
timeseries.

:func:`telemetry_to_dict` is a traced report's ``telemetry`` field in the
store's payload (and so in every line of a ``repro trace --export``
file, which holds store payloads); :func:`telemetry_from_dict` inverts
it exactly: floats survive (shortest-repr decimals parse back to
identical doubles) and ordering is preserved, so a decoded bundle
re-encodes byte for byte.  A bundle the store handed back unbuilt
(:meth:`~repro.obs.telemetry.Telemetry.from_json`) encodes as its
stored text parsed, with no event, span or metric object built.
"""

from __future__ import annotations

import json
from dataclasses import fields

from repro.harness.tracing import (
    CheckpointWritten,
    EventLog,
    FaultInjected,
    PhaseEntered,
    RecoveryApplied,
    SolverRestarted,
    TraceEvent,
)
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import Telemetry

_EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        FaultInjected,
        RecoveryApplied,
        CheckpointWritten,
        SolverRestarted,
        PhaseEntered,
        TraceEvent,
    )
}

#: Wire kind -> (event class, its field names): ``fields()`` is walked
#: once per class here, not once per decoded event.
_EVENT_FIELDS: dict[str, tuple[type, tuple[str, ...]]] = {
    kind: (cls, tuple(f.name for f in fields(cls)))
    for kind, cls in _EVENT_TYPES.items()
}


def event_to_row(event: TraceEvent) -> dict:
    """Flatten one typed event into a JSON-shaped dict (kind + fields)."""
    row = {"kind": event.kind}
    for f in fields(event):
        row[f.name] = getattr(event, f.name)
    return row


def event_from_row(row: dict) -> TraceEvent:
    """Rebuild the typed event a :func:`event_to_row` dict encodes;
    unknown kinds degrade to the base :class:`TraceEvent`."""
    cls, names = _EVENT_FIELDS.get(row.get("kind", "event"), _EVENT_FIELDS["event"])
    return cls(**{name: row[name] for name in names if name in row})


# ----------------------------------------------------------------------
# telemetry <-> JSON dict (also used by the campaign serializer)
# ----------------------------------------------------------------------
def telemetry_to_dict(tel: Telemetry) -> dict:
    """Encode a telemetry bundle as one JSON-shaped dict."""
    text = tel.stored_json
    if text is not None:
        return json.loads(text)
    return {
        "timebase": tel.timebase,
        "events": [event_to_row(e) for e in tel.events.events],
        "spans": tel.spans.to_rows(),
        "metrics": tel.metrics.snapshot(),
    }


def telemetry_from_dict(data: dict) -> Telemetry:
    """Invert :func:`telemetry_to_dict` exactly (floats included)."""
    from repro.obs.metrics import MetricsRegistry

    timebase = data.get("timebase", "wall")
    return Telemetry(
        events=EventLog(events=[event_from_row(r) for r in data.get("events", [])]),
        spans=SpanRecorder.from_rows(data.get("spans", []), timebase=timebase),
        metrics=MetricsRegistry.from_snapshot(data.get("metrics", {})),
        timebase=timebase,
    )


# ----------------------------------------------------------------------
# CSV timeseries
# ----------------------------------------------------------------------
def residual_power_csv(report) -> str:
    """Per-iteration residual + power timeseries as CSV text.

    Iteration end-times and powers are reconstructed from the report's
    RAPL phase log: ``iteration``/``extra`` phases cover whole CG
    iterations back-to-back at constant power, so each merged phase is
    split into equal slots of the solver's per-iteration wall time.
    """
    wall_s = report.details.get("iteration_wall_s")
    rows = ["iteration,sim_time_s,relative_residual,power_w"]
    history = [float(v) for v in report.residual_history]
    iteration = 0
    for phase in report.rapl.log.phases:
        if phase.tag not in ("iteration", "extra"):
            continue
        span_s = phase.t_end - phase.t_start
        n = max(1, round(span_s / wall_s)) if wall_s else 1
        step = span_s / n
        for k in range(n):
            iteration += 1
            if iteration > len(history):
                break
            t = phase.t_start + (k + 1) * step
            rows.append(
                f"{iteration},{t!r},{history[iteration - 1]!r},{phase.power_w!r}"
            )
    return "\n".join(rows) + "\n"
