"""Observability: metrics, span timing, and telemetry export.

``repro.obs`` is the cross-cutting telemetry layer the paper's phase
decomposition (Eqs. 1–16) needs operationally: every solve can record a
typed event stream, span timings and a metrics registry, the campaign
engine persists the bundle per cell in the result store, and
``python -m repro.cli trace`` reads it back.

Two timebases coexist and are never mixed (see DESIGN.md §5d):

* **sim** — solver-side telemetry is stamped with simulated cluster
  seconds, so it is deterministic and bit-identical between serial and
  parallel campaign runs;
* **wall** — harness/campaign telemetry (cells/sec, retry counts) uses
  real elapsed time and is environment-dependent by nature.

The *live* half (DESIGN.md §5i) narrates running processes instead of
finished runs: :mod:`~repro.obs.logging` writes structured JSONL logs
with a request-id context.
"""

from repro.obs.export import (
    event_from_row,
    event_to_row,
    events_from_rows,
    load_trace_jsonl,
    residual_power_csv,
    telemetry_from_dict,
    telemetry_to_dict,
    trace_jsonl_lines,
    write_trace_jsonl,
)
from repro.obs.logging import (
    REQUEST_ID_HEADER,
    LogRecord,
    StructuredLogger,
    bound_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    record_from_line,
    record_to_line,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanRecorder
from repro.obs.telemetry import RECOVERY_LATENCY_BUCKETS, Telemetry

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LogRecord",
    "MetricsRegistry",
    "RECOVERY_LATENCY_BUCKETS",
    "REQUEST_ID_HEADER",
    "Span",
    "SpanRecorder",
    "StructuredLogger",
    "Telemetry",
    "bound_request_id",
    "configure_logging",
    "current_request_id",
    "get_logger",
    "record_from_line",
    "record_to_line",
    "event_from_row",
    "event_to_row",
    "events_from_rows",
    "load_trace_jsonl",
    "residual_power_csv",
    "telemetry_from_dict",
    "telemetry_to_dict",
    "trace_jsonl_lines",
    "write_trace_jsonl",
]
