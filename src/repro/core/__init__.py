"""Core: the paper's contribution.

Distributed CG with pluggable fault-recovery schemes
(:mod:`repro.core.recovery`), a resilient solver that wires the cluster,
power, fault and checkpoint substrates together
(:mod:`repro.core.solver`), and the Section-3 analytical models
(:mod:`repro.core.models`).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "advisor": ("Objective", "SchemeAdvisor", "SchemeEstimate", "Situation"),
    "cg": ("CGState", "DistributedCG", "IterationCosts"),
    "errors": ("ConvergenceError",),
    "report": ("SolveReport",),
    "solver": ("ResilientSolver", "SolverConfig"),
}

__all__ = [
    "CGState",
    "ConvergenceError",
    "DistributedCG",
    "IterationCosts",
    "SolveReport",
    "ResilientSolver",
    "SolverConfig",
    "Objective",
    "SchemeAdvisor",
    "SchemeEstimate",
    "Situation",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
