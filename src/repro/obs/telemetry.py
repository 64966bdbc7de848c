"""The telemetry bundle one instrumented run produces.

:class:`Telemetry` groups the three observability primitives —
a typed :class:`~repro.harness.tracing.EventLog`, a
:class:`~repro.obs.spans.SpanRecorder` and a
:class:`~repro.obs.metrics.MetricsRegistry` — under one timebase, so a
consumer always knows whether timestamps are simulated seconds (solver)
or wall-clock seconds (harness/campaign).

The solver attaches its telemetry to ``SolveReport.details["telemetry"]``;
the campaign serializer round-trips the whole bundle through the result
store.  A bundle read back from a store frame starts out as the JSON
text of its section (:meth:`Telemetry.from_json`) and builds its events,
spans and metrics together on the first read of any field, so a reader
that never looks at them — a cached resume, a reply, an export — builds
none of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

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
    #: A factory rather than a plain default, so that the class has no
    #: ``timebase`` attribute to answer for a bundle not yet built.
    timebase: str = field(default_factory=lambda: "wall")

    @classmethod
    def from_json(cls, text: bytes) -> "Telemetry":
        """A bundle held as ``text``, the JSON of
        :func:`~repro.obs.export.telemetry_to_dict`, until a field is
        read.  A pickle or copy of it carries the text."""
        tel = cls.__new__(cls)
        tel.__dict__["_json"] = text
        return tel

    @property
    def stored_json(self) -> bytes | None:
        """The JSON text a bundle from :meth:`from_json` still is;
        ``None`` once it is built, and for a bundle built in memory."""
        return self.__dict__.get("_json")

    def __getattr__(self, name: str):
        # Only reached for an attribute the instance lacks: on a bundle
        # from from_json, each of its fields until it is built.  Another
        # thread may be building it too, or have just finished: fields
        # already set win, so every thread hands out the same objects.
        state = self.__dict__
        if name in _FIELDS:
            text = state.get("_json")
            if text is not None:
                from repro.obs import export

                built = export.telemetry_from_dict(json.loads(text))
                for f in _FIELDS:
                    state.setdefault(f, getattr(built, f))
                state.pop("_json", None)
            if name in state:
                return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

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


_FIELDS = tuple(f.name for f in fields(Telemetry))


def write_solve_metrics(metrics: MetricsRegistry, report) -> None:
    """Write a finished solve's derived metrics from its report.

    Both engines call this once, when a traced solve closes: the
    ``phase.time_s``/``phase.energy_j`` counters are the report's
    account charges (the paper's ``E_res``/``E_solve`` split), beside
    ``solver.iterations`` and the ``solver.*`` gauges of the report's
    scalars.  A report this program writes therefore reconciles with
    its own telemetry exactly.
    """
    for tag, charge in report.account.charges.items():
        metrics.counter("phase.time_s", phase=tag.value).inc(charge.time_s)
        metrics.counter("phase.energy_j", phase=tag.value).inc(charge.energy_j)
    metrics.counter("solver.iterations").inc(float(report.iterations))
    metrics.gauge("solver.sim_time_s").set(report.time_s)
    metrics.gauge("solver.energy_j").set(report.energy_j)
    metrics.gauge("solver.relative_residual").set(report.final_relative_residual)
    metrics.gauge("solver.converged").set(1.0 if report.converged else 0.0)


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
