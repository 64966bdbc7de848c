"""Experiment driver.

One :class:`Experiment` = one (matrix, rank count, fault load) cell of
the paper's evaluation.  It caches the fault-free baseline so every
scheme is normalized against the same run, and reproduces the paper's
two protocols:

* **iteration protocol** (Section 5.2: Figures 5-6, Table 4) —
  ``n_faults`` evenly spaced over the fault-free horizon, CR pinned to a
  fixed cadence (the paper's "every 100 iterations");
* **cost protocol** (Section 5.3: Figures 3, 7, 8; Tables 5, 6) — same
  fault load, but CR intervals derived from Young's formula with the
  MTBF implied by the fault load (``MTBF = T_ff / n_faults``), matching
  "The checkpointing frequency of CR is computed via Young's formula".

Execution is delegated to a pluggable :class:`~repro.engines.base.
ExecutionEngine` (``config.engine``): ``"sim"`` numerically steps the
faulty solve, ``"analytic"`` evaluates the Section-3 closed-form models.
The experiment owns problem construction and protocol policy; engines
own how a cell's report gets produced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.core.backends import DEFAULT_BACKEND, backend_names
from repro.core.cg import PRECONDITIONERS
from repro.core.errors import ConvergenceError
from repro.core.report import SolveReport
from repro.core.solver import SolverConfig
from repro.core.trajectory import TrajectoryMemo
from repro.engines import DEFAULT_ENGINE, ExecutionEngine, engine_names, make_engine
from repro.faults.events import FaultScope
from repro.faults.schedule import EvenlySpacedSchedule, FaultSchedule
from repro.matrices import suite as matrix_suite

#: The paper's fixed CR cadence in the resilience study (Section 5.2).
PAPER_CR_INTERVAL = 100

#: CLI-facing names of the fault blast radii (`faults.events.FaultScope`).
FAULT_SCOPES = tuple(s.value for s in FaultScope)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment cell."""

    matrix: str = "crystm02"
    nranks: int = 16
    n_faults: int = 10
    tol: float = 1e-8
    seed: int = 0
    scale: float = 1.0
    #: CR cadence policy: "paper" = fixed 100 iterations (Section 5.2);
    #: "young" = Young's interval from the implied MTBF (Section 5.3);
    #: an int pins the cadence explicitly.
    cr_interval: str | int = "paper"
    construct_tol: float = 1e-6
    max_iters: int = 200_000
    #: Record per-solve telemetry (event stream, spans, metrics) in the
    #: report's ``details``; purely observational, never changes the
    #: numerics — but it is part of the cell's cache key because it
    #: changes the persisted payload.
    trace: bool = False
    #: Execution engine: "sim" (numeric co-simulation) or "analytic"
    #: (Section-3 closed-form models).  Part of the cell's cache key —
    #: the engines agree on schema, not on bits.
    engine: str = DEFAULT_ENGINE
    #: Blast radius of each injected fault: "process" (the paper's
    #: protocol), "node" (every rank on the victim's node) or "system".
    fault_scope: str = "process"
    #: Execution backend for the CG kernels (repro.core.backends):
    #: "batched" (default, vectorized across ranks) or "loop" (the
    #: rank-by-rank reference).  Bit-identical by contract, but part of
    #: the cell's cache key so a backend regression can never silently
    #: serve results produced by the other backend.
    backend: str = DEFAULT_BACKEND
    #: Ranks lost *simultaneously* per fault event (the victim set).
    #: 1 reproduces the paper's single-failure protocol; >1 exercises the
    #: multi-loss tolerance of ESR/LI/LSI (arXiv:1907.13077's concurrent
    #: node failures).  Part of the cell's cache key.
    victims_per_fault: int = 1
    #: None for the paper's plain CG, "jacobi" for preconditioned CG
    #: (the PCG extension, arXiv:1907.13077 / arXiv:1912.09230).  Changes
    #: the iteration count, so it is part of the cell's cache key.
    preconditioner: str | None = None

    def __post_init__(self) -> None:
        if self.n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        if self.victims_per_fault < 1:
            raise ValueError("victims_per_fault must be >= 1")
        if self.victims_per_fault > self.nranks:
            raise ValueError(
                f"victims_per_fault={self.victims_per_fault} exceeds "
                f"nranks={self.nranks}"
            )
        if isinstance(self.cr_interval, str) and self.cr_interval not in (
            "paper",
            "young",
        ):
            raise ValueError("cr_interval must be 'paper', 'young' or an int")
        if isinstance(self.cr_interval, int) and self.cr_interval < 1:
            raise ValueError("explicit CR interval must be >= 1")
        if self.engine not in engine_names():
            raise ValueError(
                f"unknown engine {self.engine!r}; known: "
                f"{', '.join(engine_names())}"
            )
        if self.fault_scope not in FAULT_SCOPES:
            raise ValueError(
                f"fault_scope must be one of {', '.join(FAULT_SCOPES)}"
            )
        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; known: "
                f"{', '.join(backend_names())}"
            )
        if self.preconditioner not in (None, *PRECONDITIONERS):
            raise ValueError(
                f"unknown preconditioner {self.preconditioner!r}; known: "
                f"{', '.join(PRECONDITIONERS)}"
            )


class Experiment:
    """A matrix + fault load, ready to run any scheme."""

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        a: sp.spmatrix | None = None,
        engine: ExecutionEngine | None = None,
    ):
        """``engine`` overrides the instance built from ``config.engine``
        (e.g. an :class:`~repro.engines.analytic.AnalyticEngine` with
        custom parameters); its name must match the config.
        """
        self.config = config
        if engine is not None and engine.name != config.engine:
            raise ValueError(
                f"engine {engine.name!r} does not match config.engine="
                f"{config.engine!r}"
            )
        self.engine = engine if engine is not None else make_engine(config.engine)
        if a is None:
            a = matrix_suite.build(config.matrix, config.scale)
        # Keep a CSR input as is: the problem cache memoizes its content
        # fingerprint on the instance, and a re-wrap would re-hash the
        # matrix on every Experiment.
        self.a = a if sp.isspmatrix_csr(a) else sp.csr_matrix(a)
        n = self.a.shape[0]
        if n < config.nranks:
            # Surface the tiny-n edge at construction with experiment
            # context; BlockRowPartition would reject it anyway, but
            # only deep inside the first solve.
            raise ValueError(
                f"matrix {config.matrix!r} at scale {config.scale} has "
                f"only {n} rows — cannot distribute over "
                f"nranks={config.nranks} without empty partitions; "
                f"lower nranks or raise scale"
            )
        rng = np.random.default_rng(config.seed)
        self.x_true = rng.standard_normal(n)
        self.b = self.a @ self.x_true
        # Nothing that shapes a solve changes after construction (the
        # config is frozen, the engine fixed), so one baseline and one
        # trajectory serve the Experiment's whole life.
        self._baseline: SolveReport | None = None
        # The fault-free CG trajectory this experiment's solves share:
        # the baseline records it, scheme solves install from it.  Owned
        # here, never by a report: it dies with the Experiment and is
        # never stored or pickled.
        self._trajectory = TrajectoryMemo()

    # ------------------------------------------------------------------
    def solver_config(self, baseline: int | None) -> SolverConfig:
        """The :class:`SolverConfig` for one solve under this experiment."""
        c = self.config
        return SolverConfig(
            nranks=c.nranks,
            tol=c.tol,
            max_iters=c.max_iters,
            seed=c.seed,
            preconditioner=c.preconditioner,
            trace=c.trace,
            baseline_iters=baseline,
            backend=c.backend,
        )

    @property
    def fault_free(self) -> SolveReport:
        """The cached fault-free baseline."""
        ff = self._baseline
        if ff is None:
            ff = self.engine.solve_fault_free(self)
            if not ff.converged:
                raise ConvergenceError(
                    matrix=self.config.matrix,
                    tol=self.config.tol,
                    final_residual=ff.final_relative_residual,
                    iterations=ff.iterations,
                )
            self._baseline = ff
        return ff

    def trajectory(self) -> TrajectoryMemo:
        """The fault-free trajectory memo (:mod:`repro.core.trajectory`)."""
        return self._trajectory

    @property
    def trajectory_counts(self) -> tuple[int, int]:
        """CG iterations this experiment's solves installed from, and
        walked on, the fault-free trajectory so far, as
        ``(installed, walked)`` — a test probe, never part of a payload."""
        return self._trajectory.hits, self._trajectory.walked

    @property
    def has_baseline(self) -> bool:
        """Whether the fault-free baseline has been computed (or primed)."""
        return self._baseline is not None

    def prime_baseline(self, report: SolveReport) -> None:
        """Install a previously computed fault-free baseline.

        Lets a campaign worker (or any caller holding a cached ``FF``
        report for this exact config) skip re-running the baseline
        solve.  The report must come from the same
        :class:`ExperimentConfig` *and* the same engine; runs are
        deterministic, so an equal config implies an identical baseline.
        Reports predating engine provenance are treated as simulator
        output.
        """
        if report.scheme != "FF":
            raise ValueError(f"baseline must be an FF report, got {report.scheme!r}")
        if not report.converged:
            raise ConvergenceError(
                matrix=self.config.matrix,
                tol=self.config.tol,
                final_residual=report.final_relative_residual,
                iterations=report.iterations,
            )
        provenance = report.details.get("engine", "sim")
        if provenance != self.engine.name:
            raise ValueError(
                f"baseline was produced by the {provenance!r} engine; this "
                f"experiment runs {self.engine.name!r}"
            )
        self._baseline = report

    def schedule(self) -> FaultSchedule:
        return EvenlySpacedSchedule(
            n_faults=self.config.n_faults,
            seed=self.config.seed,
            scope=FaultScope(self.config.fault_scope),
            victims_per_fault=self.config.victims_per_fault,
        )

    def fault_scope_victims(self) -> int:
        """Worst-case ranks lost per fault under the configured scope,
        from the cluster topology (1 / cores-per-node cap / all)."""
        c = self.config
        if c.fault_scope == "process":
            return c.victims_per_fault
        if c.fault_scope == "system":
            return c.nranks
        from repro.cluster.comm import SimComm
        from repro.cluster.machine import paper_machine

        binding = SimComm(paper_machine(), c.nranks).binding
        per_node = max(
            len(binding.ranks_on_node(node))
            for node in range(binding.nodes_used)
        )
        return min(c.nranks, per_node * c.victims_per_fault)

    def implied_mtbf_s(self) -> float:
        """MTBF consistent with the injected fault load."""
        if self.config.n_faults == 0:
            raise ValueError("no faults: MTBF undefined")
        return self.fault_free.time_s / self.config.n_faults

    def cr_kwargs(self) -> dict:
        """Checkpoint cadence kwargs for ``make_scheme`` per the
        configured interval policy."""
        c = self.config
        if c.cr_interval == "paper":
            return {"interval_iters": PAPER_CR_INTERVAL}
        if c.cr_interval == "young":
            return {"mtbf_s": self.implied_mtbf_s()}
        return {"interval_iters": int(c.cr_interval)}

    def run(self, scheme_name: str) -> SolveReport:
        """Run one scheme under the configured fault load."""
        if scheme_name == "FF":
            return self.fault_free
        return self.engine.solve_scheme(self, scheme_name, self.fault_free)

    def run_all(self, scheme_names: list[str]) -> dict[str, SolveReport]:
        return {name: self.run(name) for name in scheme_names}


#: The scheme set of Figure 5 / Table 4.
ITERATION_STUDY_SCHEMES = ["RD", "F0", "FI", "LI", "LSI", "CR-D"]
#: The scheme set of Table 5 / Figure 8.
COST_STUDY_SCHEMES = ["RD", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"]


def run_suite(
    matrices: list[str] | None = None,
    scheme_names: list[str] | None = None,
    *,
    base: ExperimentConfig | None = None,
) -> dict[str, dict[str, SolveReport]]:
    """Run a scheme set over a matrix set; returns
    ``{matrix: {scheme_or_"FF": report}}`` with baselines included."""
    base = base or ExperimentConfig()
    matrices = matrices if matrices is not None else matrix_suite.names()
    scheme_names = scheme_names or ITERATION_STUDY_SCHEMES
    out: dict[str, dict[str, SolveReport]] = {}
    for name in matrices:
        exp = Experiment(replace(base, matrix=name))
        reports = {"FF": exp.fault_free}
        reports.update(exp.run_all(scheme_names))
        out[name] = reports
    return out
