"""Observability: metrics, span timing, and telemetry codecs.

``repro.obs`` is the cross-cutting telemetry layer the paper's phase
decomposition (Eqs. 1–16) needs operationally: every solve can record a
typed event stream, span timings and a metrics registry, and the
campaign engine persists the bundle per cell inside the report's store
payload.  ``python -m repro.cli trace|report|doctor`` read those
payloads back, from the store or from a ``trace --export`` file of
payload lines.

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

from repro._exports import lazy_exports

_EXPORTS = {
    "export": (
        "event_from_row",
        "event_to_row",
        "residual_power_csv",
        "telemetry_from_dict",
        "telemetry_to_dict",
    ),
    "logging": (
        "REQUEST_ID_HEADER",
        "LogRecord",
        "StructuredLogger",
        "bound_request_id",
        "configure_logging",
        "current_request_id",
        "get_logger",
        "record_from_line",
        "record_to_line",
    ),
    "metrics": (
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    "spans": ("Span", "SpanRecorder"),
    "telemetry": ("RECOVERY_LATENCY_BUCKETS", "Telemetry"),
}

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
    "residual_power_csv",
    "telemetry_from_dict",
    "telemetry_to_dict",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
