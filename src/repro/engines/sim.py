"""The numeric co-simulation engine.

This is the original execution path — :class:`ResilientSolver` running a
real distributed CG under injected faults — extracted from
``harness.experiment`` so the harness no longer assumes numeric
execution.  The experiment still owns problem construction and protocol
policy (CR cadence, fault schedule, solver knobs); this engine only
assembles them into solver runs, handing every solve — the fault-free
baseline first — the experiment's trajectory memo
(:mod:`repro.core.trajectory`).
Reports are bit-identical to the
pre-engine code path apart from the ``details["engine"]`` stamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.recovery import make_scheme
from repro.core.report import SolveReport
from repro.core.solver import ResilientSolver
from repro.engines.base import ExecutionEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import Experiment


class SimEngine(ExecutionEngine):
    """Execute cells by numerically simulating the faulty solve."""

    name = "sim"

    def solve_fault_free(self, experiment: "Experiment") -> SolveReport:
        solver = ResilientSolver(
            experiment.a, experiment.b, config=experiment.solver_config(None)
        )
        return self._stamp(solver.solve(trajectory=experiment.trajectory()))

    def solve_scheme(
        self,
        experiment: "Experiment",
        scheme_name: str,
        baseline: SolveReport,
    ) -> SolveReport:
        scheme = make_scheme(
            scheme_name,
            construct_tol=experiment.config.construct_tol,
            **(
                experiment.cr_kwargs()
                if scheme_name.startswith("CR") or scheme_name == "ABCR"
                else {}
            ),
        )
        solver = ResilientSolver(
            experiment.a,
            experiment.b,
            scheme=scheme,
            schedule=experiment.schedule(),
            config=experiment.solver_config(baseline.iterations),
        )
        return self._stamp(solver.solve(trajectory=experiment.trajectory()))
