"""Fault substrate: taxonomy, schedules, injection, MTBF estimation.

Implements the paper's fault model (Section 2.1): soft faults
(DCE/DUE/SDC) and hard faults (SWO/SNF/LNF) that corrupt or destroy the
dynamic data of a single process, with static data (A, b) assumed
recoverable from persistent storage, and the MTBF projection behind
Figure 1.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "events": ("FaultClass", "FaultEvent", "FaultKind", "FaultScope"),
    "schedule": (
        "EvenlySpacedSchedule",
        "FixedIterationSchedule",
        "PoissonSchedule",
        "FaultSchedule",
    ),
    "injector": ("FaultInjector",),
    "mtbf": ("MtbfEstimator", "SystemClass", "PETASCALE", "EXASCALE"),
}

__all__ = [
    "FaultClass",
    "FaultEvent",
    "FaultKind",
    "FaultScope",
    "FaultSchedule",
    "EvenlySpacedSchedule",
    "FixedIterationSchedule",
    "PoissonSchedule",
    "FaultInjector",
    "MtbfEstimator",
    "SystemClass",
    "PETASCALE",
    "EXASCALE",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
