"""Experiment harness: the drivers behind every table and figure.

:class:`~repro.harness.experiment.Experiment` builds a suite matrix,
caches its fault-free baseline, and runs any recovery scheme under the
paper's two fault protocols (fixed-count evenly-spaced faults with a
fixed CR cadence — Section 5.2; or the same faults with Young-derived CR
intervals — Section 5.3).  :mod:`repro.harness.reporting` renders the
rows exactly as the paper's tables print them.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "experiment": ("Experiment", "ExperimentConfig"),
    "normalize": ("normalize_reports",),
    "reporting": ("format_table", "format_series"),
    "tracing": (
        "CheckpointWritten",
        "EventLog",
        "FaultInjected",
        "RecoveryApplied",
        "SolverRestarted",
    ),
}

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "normalize_reports",
    "format_table",
    "format_series",
    "EventLog",
    "FaultInjected",
    "RecoveryApplied",
    "CheckpointWritten",
    "SolverRestarted",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
