"""Telemetry exporters and loaders: JSONL streams and CSV timeseries.

The JSONL format is line-oriented and greppable; every line is one JSON
object with a ``stream`` discriminator:

* ``{"stream": "cell", "cell": <label>, "scheme": …, "timebase": …}`` —
  opens one cell's telemetry;
* ``{"stream": "event", "cell": …, "kind": "fault", …}`` — one typed
  :class:`~repro.harness.tracing.TraceEvent`, flattened;
* ``{"stream": "span", "cell": …, "name": …, "t_start": …}`` — one span;
* ``{"stream": "metrics", "cell": …, "snapshot": {…}}`` — the cell's
  metrics registry snapshot.

:func:`load_trace_jsonl` inverts :func:`write_trace_jsonl` exactly:
floats survive (shortest-repr decimals parse back to identical doubles)
and ordering is preserved, so ``export → load → export`` is
byte-identical — the CI round-trip assertion and the serial-vs-parallel
acceptance check both lean on this.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

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


def events_from_rows(rows: list[dict]) -> EventLog:
    """An :class:`EventLog` rebuilt from flattened event rows."""
    return EventLog(events=[event_from_row(r) for r in rows])


# ----------------------------------------------------------------------
# telemetry <-> JSON dict (also used by the campaign serializer)
# ----------------------------------------------------------------------
def telemetry_to_dict(tel: Telemetry) -> dict:
    """Encode a telemetry bundle as one JSON-shaped dict."""
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
        events=events_from_rows(data.get("events", [])),
        spans=SpanRecorder.from_rows(data.get("spans", []), timebase=timebase),
        metrics=MetricsRegistry.from_snapshot(data.get("metrics", {})),
        timebase=timebase,
    )


# ----------------------------------------------------------------------
# JSONL streams
# ----------------------------------------------------------------------
def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_jsonl_lines(cells: dict[str, Telemetry]) -> list[str]:
    """Flatten ``{cell label: telemetry}`` into JSONL lines."""
    lines: list[str] = []
    for label, tel in cells.items():
        lines.append(
            _dumps({"stream": "cell", "cell": label, "timebase": tel.timebase})
        )
        for e in tel.events.events:
            lines.append(_dumps({"stream": "event", "cell": label, **event_to_row(e)}))
        for row in tel.spans.to_rows():
            lines.append(_dumps({"stream": "span", "cell": label, **row}))
        lines.append(
            _dumps(
                {"stream": "metrics", "cell": label, "snapshot": tel.metrics.snapshot()}
            )
        )
    return lines


def write_trace_jsonl(path: str | Path, cells: dict[str, Telemetry]) -> int:
    """Write the JSONL stream; returns the number of lines written."""
    lines = trace_jsonl_lines(cells)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def load_trace_jsonl(path: str | Path) -> dict[str, Telemetry]:
    """Invert :func:`write_trace_jsonl`: ``{cell label: telemetry}``."""
    from repro.obs.metrics import MetricsRegistry

    cells: dict[str, Telemetry] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        if not raw.strip():
            continue
        obj = json.loads(raw)
        stream = obj.pop("stream", None)
        label = obj.pop("cell", None)
        if stream == "cell":
            cells[label] = Telemetry(timebase=obj.get("timebase", "wall"))
            cells[label].spans.timebase = cells[label].timebase
            continue
        if label not in cells:
            raise ValueError(
                f"line {lineno}: {stream!r} record before its 'cell' header"
            )
        tel = cells[label]
        if stream == "event":
            tel.events.record(event_from_row(obj))
        elif stream == "span":
            tel.spans.spans.append(
                SpanRecorder.from_rows([obj], timebase=tel.timebase).spans[0]
            )
        elif stream == "metrics":
            tel.metrics = MetricsRegistry.from_snapshot(obj.get("snapshot", {}))
        else:
            raise ValueError(f"line {lineno}: unknown stream {stream!r}")
    return cells


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
