"""The execution-engine interface.

The paper runs its study twice: once as *measurement* (a real faulty CG
on a real cluster, here the :class:`~repro.core.solver.ResilientSolver`
co-simulation) and once as *prediction* (the Section-3 closed-form
models, validated against the measurements in Table 6 and then trusted
alone for the Section-6 projection).  An :class:`ExecutionEngine` is the
seam between the two: given an :class:`~repro.harness.experiment.Experiment`
it produces schema-compatible :class:`~repro.core.report.SolveReport`
objects, so every consumer downstream of the harness — campaigns, the
result store, telemetry tooling, normalization — works identically
whether a cell was simulated numerically or evaluated in closed form.

Engines are stateless with respect to the experiment: all problem
parameters live in :class:`~repro.harness.experiment.ExperimentConfig`
(plus the experiment's execution knobs), so an engine is fully described
by its name and campaign workers rebuild one from
``config.engine`` without pickling anything.

Every report an engine returns carries provenance in
``details["engine"]`` so baselines are never silently reused across
engines and stored cells can be audited.
"""

from __future__ import annotations

import abc
import importlib
from typing import TYPE_CHECKING, ClassVar

from repro.core.report import SolveReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import Experiment

#: Engine used when a config does not name one: the numeric simulator,
#: which is what every pre-engine config implicitly meant.
DEFAULT_ENGINE = "sim"

#: Every engine :func:`make_engine` builds, as ``name -> (module, class)``
#: with the default first.  Listing names imports no engine: the
#: simulator's module pulls in the solver, so a process that only reads
#: stored results must never load it.
ENGINES: dict[str, tuple[str, str]] = {
    "sim": ("repro.engines.sim", "SimEngine"),
    "analytic": ("repro.engines.analytic", "AnalyticEngine"),
}


def engine_names() -> list[str]:
    """All engine names :func:`make_engine` accepts (default first)."""
    return list(ENGINES)


def make_engine(name: str, **kwargs) -> "ExecutionEngine":
    """Build an engine by its name (``"sim"``, ``"analytic"``), importing
    its module on first use."""
    try:
        module, cls = ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; known: {', '.join(ENGINES)}"
        ) from None
    return getattr(importlib.import_module(module), cls)(**kwargs)


#: Forward-recovery schemes the analytic engine models (Table 2's FW
#: family).
FW_SCHEMES = frozenset(
    {"F0", "FI", "LI", "LI-LU", "LI-DVFS", "LSI", "LSI-QR", "LSI-DVFS"}
)


def analytic_scheme_names() -> list[str]:
    """Every scheme the analytic engine's ``solve_scheme`` can evaluate,
    in factory order.  Anything else raises :class:`UnsupportedSchemeError`
    at solve time; CLI entry points that know the analytic engine will
    run use this list to reject such schemes at argument-parse time
    instead of mid-campaign.  Kept here, not beside the engine, so the
    check imports no engine.
    """
    from repro.core.recovery.factory import scheme_names

    supported = FW_SCHEMES | {"RD", "TMR", "CR-M", "CR-D", "ESR", "ABCR"}
    return [s for s in scheme_names() if s in supported]


class UnsupportedSchemeError(ValueError):
    """The engine has no way to execute the requested scheme."""


class ExecutionEngine(abc.ABC):
    """Produces :class:`SolveReport` objects for an experiment's cells."""

    #: Its :data:`ENGINES` name; also the provenance stamp in
    #: ``details["engine"]`` and the value of
    #: :class:`ExperimentConfig.engine` that selects it.
    name: ClassVar[str]

    @abc.abstractmethod
    def solve_fault_free(self, experiment: "Experiment") -> SolveReport:
        """The experiment's fault-free baseline (scheme ``"FF"``)."""

    @abc.abstractmethod
    def solve_scheme(
        self,
        experiment: "Experiment",
        scheme_name: str,
        baseline: SolveReport,
    ) -> SolveReport:
        """One scheme under the experiment's fault load, normalized
        against ``baseline`` (a fault-free report from this engine)."""

    def _stamp(self, report: SolveReport) -> SolveReport:
        """Record provenance; every engine path must return through here."""
        report.details["engine"] = self.name
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
