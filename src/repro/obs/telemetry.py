"""The telemetry bundle one instrumented run produces.

:class:`Telemetry` groups the three observability primitives —
a typed :class:`~repro.harness.tracing.EventLog`, a
:class:`~repro.obs.spans.SpanRecorder` and a
:class:`~repro.obs.metrics.MetricsRegistry` — under one timebase, so a
consumer always knows whether timestamps are simulated seconds (solver)
or wall-clock seconds (harness/campaign).

The solver attaches its telemetry to ``SolveReport.details["telemetry"]``;
the campaign serializer round-trips the whole bundle through the result
store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.harness.tracing import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

#: Bucket bounds for fault→recovery latency histograms (simulated s).
RECOVERY_LATENCY_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0,
)


@dataclass
class Telemetry:
    """Events + spans + metrics from one instrumented run."""

    events: EventLog = field(default_factory=EventLog)
    spans: SpanRecorder = field(default_factory=SpanRecorder)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: "sim" — timestamps are simulated cluster seconds (deterministic,
    #: bit-identical across serial/parallel runs); "wall" — real time.
    timebase: str = "wall"

    @classmethod
    def for_solver(cls, clock) -> "Telemetry":
        """Solver-side bundle: spans ride the simulated clock."""
        return cls(
            spans=SpanRecorder(clock=clock, timebase="sim"), timebase="sim"
        )

    def recovery_latency_histogram(self, scheme: str):
        """The per-scheme fault→recovery latency histogram (created on
        first use with the standard buckets)."""
        return self.metrics.histogram(
            "recovery.latency_s", buckets=RECOVERY_LATENCY_BUCKETS,
            scheme=scheme,
        )


def annotate_root_span(report, name: str, value: str) -> None:
    """Stamp ``name=value`` onto a traced report's root ``solve`` span.

    How a correlation id (a campaign cell id, the serving tier's request
    ids) reaches the solve it names: the attr persists with the stored
    telemetry and round-trips through a ``trace --export`` line.  Untraced
    reports are left byte-identical.
    """
    details = getattr(report, "details", None)
    tel = details.get("telemetry") if isinstance(details, dict) else None
    if tel is None:
        return
    spans = tel.spans.spans
    for i, s in enumerate(spans):
        if s.name == "solve" and s.depth == 0:
            attrs = dict(s.attrs)
            attrs[name] = value
            spans[i] = replace(s, attrs=tuple(sorted(attrs.items())))
            return
