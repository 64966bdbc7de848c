"""repro — reproduction of "Energy Analysis and Optimization for
Resilient Scalable Linear Systems" (Miao, Calhoun, Ge; CLUSTER 2018).

The package co-simulates time, power, energy and resilience of parallel
CG solves under faults:

>>> from repro import ResilientSolver, SolverConfig, make_scheme
>>> from repro.faults import EvenlySpacedSchedule
>>> from repro.matrices import suite
>>> a = suite.build("crystm02")
>>> import numpy as np
>>> b = a @ np.ones(a.shape[0])
>>> solver = ResilientSolver(
...     a, b,
...     scheme=make_scheme("LI-DVFS"),
...     schedule=EvenlySpacedSchedule(n_faults=10),
...     config=SolverConfig(nranks=16),
... )
>>> report = solver.solve()           # doctest: +SKIP

Subpackages: :mod:`repro.cluster` (simulated machine), :mod:`repro.power`
(DVFS / RAPL / energy accounts), :mod:`repro.faults`, :mod:`repro.checkpoint`,
:mod:`repro.matrices` (Table-3 suite), :mod:`repro.core` (solver, recovery
schemes, Section-3 analytical models), :mod:`repro.harness` (experiment
drivers behind every table and figure).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "core.advisor": ("Objective", "SchemeAdvisor", "Situation"),
    "core.cg": ("DistributedCG",),
    "core.errors": ("ConvergenceError",),
    "core.recovery.factory": ("make_scheme", "scheme_names"),
    "core.report": ("SolveReport",),
    "core.solver": ("ResilientSolver", "SolverConfig"),
}

__version__ = "1.0.0"

__all__ = [
    "ConvergenceError",
    "DistributedCG",
    "ResilientSolver",
    "SolverConfig",
    "SolveReport",
    "make_scheme",
    "scheme_names",
    "Objective",
    "SchemeAdvisor",
    "Situation",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
