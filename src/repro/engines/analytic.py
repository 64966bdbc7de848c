"""The closed-form engine: Section-3 models as an execution path.

Where :class:`~repro.engines.sim.SimEngine` prices every CG iteration by
numerically stepping the faulty solve, this engine evaluates the paper's
Equations 2-16 once per cell.  It parameterises the per-scheme models
(:class:`CheckpointModel`, :class:`RedundancyModel`,
:class:`ForwardRecoveryModel`) from the *same* substrate the simulator
uses — the measured :class:`~repro.core.cg.IterationCosts`, the
:class:`~repro.power.model.PowerModel` core powers, the checkpoint store
cost models — so model-vs-sim drift (``repro validate``) measures model
fidelity, not parameter skew.

The one numeric quantity the models cannot produce is the fault-free
convergence horizon ``H`` (a property of the matrix, not of the cost
model).  It comes from the primed baseline when a campaign provides one,
and otherwise from one memoized CG probe
(:func:`repro.matrices.cache.fault_free_horizon`) shared across every
rank count of the same matrix.  Everything after that probe is
arithmetic, which is what makes ``--engine analytic`` sweeps of 10^5-10^6
processes feasible: a primed scheme cell costs microseconds, not solver
minutes.

Reports are schema-compatible with the simulator's — phase-tagged
account, RAPL log, fault list (the *same* schedule events the simulator
would inject), traffic counters, telemetry when tracing — but aggregate:
the RAPL log has one phase per model term rather than per-iteration
structure, and the residual history is the two-point ``[1, tol]``
envelope the model assumes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.checkpoint.store import DiskStore, MemoryStore
from repro.cluster.comm import SimComm, TrafficCounters
from repro.cluster.machine import paper_machine
from repro.cluster.network import NetworkModel
from repro.core.cg import IterationPower
from repro.core.models.general import GeneralModel, WorkloadParams
from repro.core.models.validation import DEFAULT_EXTRA_FRACTION_PER_FAULT
from repro.core.report import SolveReport
from repro.engines.base import (
    ExecutionEngine,
    UnsupportedSchemeError,
    register_engine,
)
from repro.faults.events import FaultEvent, blast_radius
from repro.matrices import cache as problem_cache
from repro.power.energy import Charge, EnergyAccount, PhaseTag
from repro.power.model import CoreState, PowerModel
from repro.power.rapl import RaplMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import Experiment

#: Forward-recovery schemes the engine can model (Table 2's FW family).
FW_SCHEMES = frozenset(
    {"F0", "FI", "LI", "LI-LU", "LI-DVFS", "LSI", "LSI-QR", "LSI-DVFS"}
)


def analytic_scheme_names() -> list[str]:
    """Every scheme :meth:`AnalyticEngine.solve_scheme` can evaluate, in
    factory order.  Anything else raises :class:`UnsupportedSchemeError`
    at solve time; CLI entry points that know the analytic engine will
    run use this list to reject such schemes at argument-parse time
    instead of mid-campaign.
    """
    from repro.core.recovery import scheme_names

    supported = set(FW_SCHEMES) | {"RD", "TMR", "CR-M", "CR-D", "ESR", "ABCR"}
    return [s for s in scheme_names() if s in supported]


@dataclass(frozen=True)
class AnalyticParams:
    """A-priori inputs of the closed-form models.

    ``extra_fraction_per_fault`` is the Section-6 suite-average
    convergence delay per fault; ``construct_iteration_constant`` is the
    ``C`` in the local-CG iteration estimate ``N ~= C sqrt(m) ln(2/tol)``
    (the classic CG bound with the block dimension standing in for its
    condition number).
    """

    extra_fraction_per_fault: float = DEFAULT_EXTRA_FRACTION_PER_FAULT
    construct_iteration_constant: float = 0.5

    def __post_init__(self) -> None:
        if self.extra_fraction_per_fault < 0:
            raise ValueError("extra fraction must be non-negative")
        if self.construct_iteration_constant <= 0:
            raise ValueError("construction constant must be positive")


class _Substrate:
    """The machine/cost parameters one cell's models are built from.

    Mirrors the simulator's setup (same problem cache, same communicator
    growth, same power model, same :class:`IterationPower` split)
    without constructing a solver.
    """

    def __init__(self, experiment: "Experiment") -> None:
        cfg = experiment.config
        self.nranks = cfg.nranks
        self.comm = SimComm(paper_machine(), cfg.nranks, NetworkModel())
        self.machine = self.comm.machine  # grown if nranks > 192
        self.power = PowerModel()
        self.dmat = problem_cache.distributed_matrix(experiment.a, cfg.nranks)
        self.costs = problem_cache.iteration_costs(
            self.dmat, self.comm, preconditioned=cfg.preconditioner is not None
        )
        pm = self.power
        self.fmax_ghz = pm.ladder.fmax_ghz
        self.p_active = pm.core_power(self.fmax_ghz, CoreState.ACTIVE)
        self.p_idle_fmax = pm.core_power(self.fmax_ghz, CoreState.IDLE)
        self.p_idle_fmin = pm.core_power(pm.ladder.fmin_ghz, CoreState.IDLE)
        self.iteration = IterationPower.of(
            self.costs, cfg.nranks, self.p_active, self.p_idle_fmax
        )


@dataclass
class _SchemeTerms:
    """One scheme's model output, ready to assemble into a report."""

    phases: list[tuple[PhaseTag, float, float]]  # (tag, seconds, joules)
    extra_iters: int = 0
    restarts: int = 0
    dvfs_transitions: int = 0
    energy_multiplier: float = 1.0  # RAPL power scale during execution
    construct_per_fault_s: float = 0.0
    scheme_details: dict | None = None
    model_params: dict | None = None


@register_engine
class AnalyticEngine(ExecutionEngine):
    """Evaluate cells with the Section-3 closed-form models."""

    name = "analytic"

    def __init__(self, params: AnalyticParams | None = None) -> None:
        self.params = params or AnalyticParams()
        # One substrate per experiment (a cell evaluates many schemes
        # against the same matrix/partition), dropped when it is collected.
        self._substrates: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _substrate(self, experiment: "Experiment") -> _Substrate:
        sub = self._substrates.get(experiment)
        if sub is None:
            sub = self._substrates[experiment] = _Substrate(experiment)
        return sub

    # ------------------------------------------------------------------
    def solve_fault_free(self, experiment: "Experiment") -> SolveReport:
        sub = self._substrate(experiment)
        cfg = experiment.config
        horizon = problem_cache.fault_free_horizon(
            sub.dmat,
            experiment.b,
            tol=cfg.tol,
            max_iters=cfg.max_iters,
            preconditioner=cfg.preconditioner,
            seed=cfg.seed,
        )
        return self._assemble(
            experiment,
            sub,
            scheme="FF",
            horizon=horizon,
            terms=_SchemeTerms(phases=[]),
            events=[],
            victim_lists=[],
            baseline_iters=None,
        )

    def solve_scheme(
        self,
        experiment: "Experiment",
        scheme_name: str,
        baseline: SolveReport,
    ) -> SolveReport:
        cfg = experiment.config
        sub = self._substrate(experiment)
        horizon = baseline.iterations
        gm = self._general_model(baseline, cfg.nranks)
        rate = cfg.n_faults / baseline.time_s if cfg.n_faults else 0.0
        events = experiment.schedule().events(
            nranks=cfg.nranks, horizon_iters=horizon
        )
        victim_lists = [blast_radius(e, sub.comm.binding) for e in events]

        if scheme_name in ("RD", "TMR"):
            terms = self._redundancy_terms(scheme_name, gm)
        elif scheme_name == "ESR":
            terms = self._esr_terms(sub, gm, rate, horizon, events, victim_lists)
        elif scheme_name == "ABCR":
            terms = self._abcr_terms(experiment, sub, gm, rate, events)
        elif scheme_name.startswith("CR"):
            terms = self._checkpoint_terms(
                experiment, sub, scheme_name, gm, rate, events
            )
        elif scheme_name in FW_SCHEMES:
            terms = self._forward_terms(
                experiment, sub, scheme_name, gm, rate, events, victim_lists
            )
        else:
            raise UnsupportedSchemeError(
                f"no closed-form model for scheme {scheme_name!r}; "
                "use the sim engine"
            )
        return self._assemble(
            experiment,
            sub,
            scheme=scheme_name,
            horizon=horizon,
            terms=terms,
            events=events,
            victim_lists=victim_lists,
            baseline_iters=horizon,
        )

    # ------------------------------------------------------------------
    # per-family model terms
    # ------------------------------------------------------------------
    @staticmethod
    def _general_model(ff: SolveReport, nranks: int) -> GeneralModel:
        """Equations 2-8 parameterised exactly as Table 6 does: SOLVE
        time is T_solve, OVERHEAD time is T_O(N), P_1 is the per-core
        share of the baseline's average power."""
        return GeneralModel(
            WorkloadParams(
                t_solve_s=max(ff.account.time(PhaseTag.SOLVE), 1e-12),
                p1_w=ff.average_power_w / nranks,
            ),
            n_cores=nranks,
            parallel_overhead_s=ff.account.time(PhaseTag.OVERHEAD),
        )

    def _redundancy_terms(self, name: str, gm: GeneralModel) -> _SchemeTerms:
        from repro.core.models.schemes import RedundancyModel

        replicas = 3 if name == "TMR" else 2
        m = RedundancyModel(gm, replicas=replicas)
        return _SchemeTerms(
            phases=[(PhaseTag.REDUNDANT, 0.0, m.e_res_j())],
            energy_multiplier=float(replicas),
            scheme_details={"recoveries": 0},
            model_params={"family": "redundancy", "replicas": replicas},
        )

    def _esr_terms(
        self,
        sub: _Substrate,
        gm: GeneralModel,
        rate: float,
        horizon: int,
        events: list[FaultEvent],
        victim_lists: list[list[int]],
    ) -> _SchemeTerms:
        """ESR (arXiv:1907.13077): exact multi-loss reconstruction.

        Priced from the *same* shared formulas the simulated scheme uses
        (:func:`repro.core.recovery.esr.rebuild_flops` /
        :func:`~repro.core.recovery.esr.retention_bytes`): the per-
        iteration redundant p/r streaming overlaps execution (REDUNDANT
        energy, no wall-clock), and each fault pays the victims' copy-
        back transfers (RESTORE) plus one recurrence replay over the lost
        row panels (RECONSTRUCT).  The reconstruction is exact, so there
        are no extra iterations and no restarts — CG stays on the
        fault-free trajectory.
        """
        from repro.core.models.schemes import ExactReconstructionModel
        from repro.core.recovery.esr import rebuild_flops, retention_bytes

        core = sub.machine.node.core
        sizes = sub.dmat.partition.sizes
        p2p = sub.comm.network.p2p_time
        p_core = sub.p_active  # power_compute_w() / nranks
        ov_per_iter = sum(
            p2p(retention_bytes(int(sizes[r])), same_node=False) * p_core
            for r in range(sub.nranks)
        )
        t_xfer_tot = 0.0
        t_rebuild_tot = 0.0
        total_blocks = 0
        for victims in victim_lists:
            total_blocks += len(victims)
            for v in victims:
                m_rows = int(sizes[v])
                t_xfer_tot += p2p(retention_bytes(m_rows), same_node=False)
                t_rebuild_tot += core.compute_time(
                    rebuild_flops(sub.dmat.row_block(v).nnz, m_rows),
                    sub.fmax_ghz,
                )
        p_rebuild = sub.p_active + (sub.nranks - 1) * sub.p_idle_fmax
        n_events = len(events)
        model = ExactReconstructionModel(
            gm,
            retention_power_w=(
                ov_per_iter / sub.costs.wall_s if sub.costs.wall_s > 0 else 0.0
            ),
            t_xfer_s=t_xfer_tot / n_events if n_events else 0.0,
            t_rebuild_s=t_rebuild_tot / n_events if n_events else 0.0,
            n_faults=n_events,
            rebuild_power_w=p_rebuild,
        )
        phases: list[tuple[PhaseTag, float, float]] = [
            (PhaseTag.REDUNDANT, 0.0, horizon * ov_per_iter)
        ]
        if t_xfer_tot > 0:
            phases.append(
                (PhaseTag.RESTORE, t_xfer_tot, t_xfer_tot * sub.p_active * sub.nranks)
            )
        if t_rebuild_tot > 0:
            phases.append(
                (PhaseTag.RECONSTRUCT, t_rebuild_tot, t_rebuild_tot * p_rebuild)
            )
        return _SchemeTerms(
            phases=phases,
            construct_per_fault_s=model.t_rebuild_s,
            scheme_details={"recoveries": total_blocks},
            model_params={
                "family": "exact-reconstruction",
                "retention_power_w": model.retention_power_w,
                "t_xfer_s": model.t_xfer_s,
                "t_rebuild_s": model.t_rebuild_s,
                "rate_per_s": rate,
                "blocks_per_fault": (
                    total_blocks / n_events if n_events else 1.0
                ),
            },
        )

    def _abcr_terms(
        self,
        experiment: "Experiment",
        sub: _Substrate,
        gm: GeneralModel,
        rate: float,
        events: list[FaultEvent],
    ) -> _SchemeTerms:
        """ABCR (arXiv:2007.04066): checkpoint timing over in-memory
        retention, with reconstruction replacing the store read.

        The write/read cost is the neighbour transfer of the retained
        blocks (:func:`repro.core.recovery.abcr.retention_transfer_s`'s
        critical path, computed from the same partition), the rollback
        term is the exact event sum like :meth:`_checkpoint_terms`, and
        each fault adds one restart-equivalent recurrence rebuild.
        """
        from repro.core.models.schemes import ABCRModel, CheckpointModel
        from repro.core.recovery.abcr import RETAINED_VECTORS
        from repro.matrices.distributed import BYTES_PER_ENTRY

        sizes = sub.dmat.partition.sizes
        p2p = sub.comm.network.p2p_time
        t_c = max(
            p2p(
                RETAINED_VECTORS * int(sizes[r]) * BYTES_PER_ENTRY,
                same_node=False,
            )
            for r in range(sub.nranks)
        )
        kwargs = experiment.cr_kwargs()
        wall = sub.costs.wall_s
        interval_iters = kwargs.get("interval_iters")
        if interval_iters is None:
            from repro.core.recovery.factory import DEFAULT_CR_INTERVAL_ITERS

            interval_iters = DEFAULT_CR_INTERVAL_ITERS
        frac = min(max(sub.p_idle_fmax / sub.p_active, 1e-6), 1.0)
        checkpoint = CheckpointModel(
            gm,
            t_c_s=max(t_c, 1e-12),
            rate_per_s=rate,
            interval_s=interval_iters * wall,
            checkpoint_power_fraction=frac,
        )
        interval_eff = checkpoint.effective_interval_s
        t_lost = sum((e.iteration * wall) % interval_eff for e in events)
        n_events = len(events)
        t_rebuild_tot = n_events * wall  # one recurrence replay per fault
        model = ABCRModel(
            checkpoint,
            t_rebuild_s=wall,
            n_faults=n_events,
            rebuild_power_w=gm.power_execution_w(),
        )
        total = gm.time_fault_free_s() + t_lost
        t_chkpt = checkpoint.t_chkpt_s(total)
        phases: list[tuple[PhaseTag, float, float]] = []
        if t_chkpt > 0:
            phases.append(
                (PhaseTag.CHECKPOINT, t_chkpt, t_chkpt * checkpoint.p_res_w())
            )
        if t_lost > 0:
            phases.append(
                (PhaseTag.EXTRA, t_lost, t_lost * gm.power_execution_w())
            )
        if n_events:
            phases.append(
                (PhaseTag.RESTORE, n_events * t_c, n_events * t_c * checkpoint.p_res_w())
            )
            phases.append(
                (
                    PhaseTag.RECONSTRUCT,
                    t_rebuild_tot,
                    t_rebuild_tot * gm.power_execution_w(),
                )
            )
        writes = int(total / interval_eff)
        return _SchemeTerms(
            phases=phases,
            extra_iters=int(round(t_lost / wall)) if wall > 0 else 0,
            restarts=n_events,
            construct_per_fault_s=wall,
            scheme_details={
                "checkpoints_written": writes,
                "interval_iters": int(interval_iters),
                "recoveries": n_events,
            },
            model_params={
                "family": "abcr",
                "t_c_s": t_c,
                "interval_s": interval_eff,
                "t_rebuild_s": model.t_rebuild_s,
                "rate_per_s": rate,
                "checkpoint_power_fraction": frac,
            },
        )

    def _checkpoint_terms(
        self,
        experiment: "Experiment",
        sub: _Substrate,
        name: str,
        gm: GeneralModel,
        rate: float,
        events: list[FaultEvent],
    ) -> _SchemeTerms:
        from repro.core.models.schemes import CheckpointModel

        if name not in ("CR-M", "CR-D"):
            raise UnsupportedSchemeError(
                f"no closed-form model for scheme {name!r} (the multi-level "
                "manager has no Section-3 counterpart); use the sim engine"
            )
        cfg = experiment.config
        store = MemoryStore() if name == "CR-M" else DiskStore()
        # The solver snapshots x: n rows of float64.
        t_c = store.write_time_s(experiment.a.shape[0] * 8.0, cfg.nranks)
        kwargs = experiment.cr_kwargs()
        wall = sub.costs.wall_s
        if "interval_iters" in kwargs:
            interval_s: float | None = kwargs["interval_iters"] * wall
        else:
            # Young's interval from the implied MTBF; the model computes
            # it from ``rate`` (= 1/MTBF by construction of the load).
            interval_s = None
        frac = min(max(sub.p_idle_fmax / sub.p_active, 1e-6), 1.0)
        model = CheckpointModel(
            gm,
            t_c_s=max(t_c, 1e-12),
            rate_per_s=rate,
            interval_s=interval_s,
            checkpoint_power_fraction=frac,
        )
        # Equations 10-11 evaluated at the *exact* injected load rather
        # than the Poisson fixed point: the experiment schedules exactly
        # ``n_faults`` at known iterations, so T_lost is the sum of each
        # fault's rollback to its last checkpoint (expected value
        # I_C/2 per fault — Eq. 11 — when the horizon spans many
        # intervals).  The asymptotic fixed point T = T_ff/(1 - waste)
        # diverges on short horizons where I_C is a sizeable fraction of
        # T_ff, which is a property of the renewal approximation, not of
        # checkpointing; the exact sum stays faithful at every scale.
        interval_eff = model.effective_interval_s
        if math.isinf(interval_eff):
            t_lost = 0.0
        else:
            t_lost = sum(
                (e.iteration * wall) % interval_eff for e in events
            )
        total = gm.time_fault_free_s() + t_lost
        t_chkpt = model.t_chkpt_s(total)  # Eq. 10 at the actual total time
        phases = []
        if t_chkpt > 0:
            phases.append(
                (PhaseTag.CHECKPOINT, t_chkpt, t_chkpt * model.p_res_w())
            )
        if t_lost > 0:
            phases.append(
                (PhaseTag.EXTRA, t_lost, t_lost * gm.power_execution_w())
            )
        writes = (
            0 if math.isinf(interval_eff) else int(total / interval_eff)
        )
        return _SchemeTerms(
            phases=phases,
            extra_iters=int(round(t_lost / wall)) if wall > 0 else 0,
            restarts=cfg.n_faults,
            scheme_details={
                "checkpoints_written": writes,
                "interval_iters": (
                    0
                    if math.isinf(interval_eff) or wall <= 0
                    else max(1, int(round(interval_eff / wall)))
                ),
            },
            model_params={
                "family": "checkpoint",
                "t_c_s": t_c,
                "interval_s": interval_eff,
                "rate_per_s": rate,
                "checkpoint_power_fraction": frac,
            },
        )

    def _forward_terms(
        self,
        experiment: "Experiment",
        sub: _Substrate,
        name: str,
        gm: GeneralModel,
        rate: float,
        events: list[FaultEvent],
        victim_lists: list[list[int]],
    ) -> _SchemeTerms:
        from repro.core.models.schemes import ForwardRecoveryModel

        cfg = experiment.config
        dvfs = name.endswith("-DVFS")
        constructs = name not in ("F0", "FI")
        n_events = len(events)
        total_blocks = sum(len(v) for v in victim_lists)
        k_avg = total_blocks / n_events if n_events else 1.0
        wall = sub.costs.wall_s
        if constructs and n_events:
            t_const_tot = sum(
                sum(self._construct_time_s(sub, cfg, name, r) for r in victims)
                for victims in victim_lists
            )
        else:
            t_const_tot = 0.0
        t_const = t_const_tot / n_events if n_events else 0.0
        # Convergence delay per fault (the model's t_extra), evaluated at
        # the exact injected load like the CR terms.  Every FW recovery
        # restarts CG, discarding the Krylov space built since the
        # previous restart:
        #  * F0/FI repair with a full-magnitude perturbation (zeros / the
        #    initial guess), so the restart redoes essentially all of
        #    that discarded progress — the inter-fault gap, in closed
        #    form from the schedule.  An upper estimate (Table 6's "over
        #    estimates T_res and E_res" caveat).
        #  * The interpolating schemes repair close to the lost state, so
        #    their delay is the paper's a-priori suite-average fraction
        #    per fault, scaled by blocks lost (wider blast radii
        #    reintroduce more error; PROCESS scope k=1 reduces to the
        #    paper's term).
        t_extra_tot = 0.0
        prev_iter = 0
        for event, victims in zip(events, victim_lists):
            if constructs:
                t_extra_tot += (
                    self.params.extra_fraction_per_fault
                    * gm.time_fault_free_s()
                    * len(victims)
                )
            else:
                t_extra_tot += (event.iteration - prev_iter) * wall
            prev_iter = event.iteration
        t_extra = t_extra_tot / n_events if n_events else 0.0
        idle_frac = (sub.p_idle_fmin if dvfs else sub.p_idle_fmax) / sub.p_active
        idle_frac = min(max(idle_frac, 0.0), 1.0)
        # The model instance carries the power side (Eq. 15) and the
        # per-fault parameterisation; the totals above are Eq. 14's
        # lambda*T*t terms evaluated at the exact fault count.
        model = ForwardRecoveryModel(
            gm,
            rate_per_s=rate,
            t_const_s=t_const,
            t_extra_s=t_extra,
            n_active=1,
            idle_power_fraction=idle_frac,
        )
        phases = []
        if t_const_tot > 0:
            phases.append(
                (PhaseTag.RECONSTRUCT, t_const_tot, t_const_tot * model.p_const_w())
            )
        if t_extra_tot > 0:
            phases.append(
                (PhaseTag.EXTRA, t_extra_tot, t_extra_tot * gm.power_execution_w())
            )
        n = cfg.nranks
        return _SchemeTerms(
            phases=phases,
            extra_iters=int(round(t_extra_tot / wall)) if wall > 0 else 0,
            restarts=n_events,
            # One governor grab, every core down, every core back up.
            dvfs_transitions=(2 * n + 1) * n_events if dvfs else 0,
            construct_per_fault_s=t_const,
            scheme_details={
                "constructions": total_blocks if constructs else 0,
                "recoveries": total_blocks,
            },
            model_params={
                "family": "forward",
                "t_const_s": t_const,
                "t_extra_s": t_extra,
                "rate_per_s": rate,
                "idle_power_fraction": idle_frac,
                "blocks_per_fault": k_avg,
            },
        )

    def _construct_time_s(
        self, sub: _Substrate, cfg, name: str, rank: int
    ) -> float:
        """A-priori per-block construction estimate for one victim.

        Matches the *pricing* the simulated schemes use (flops through
        the core's rate table) with an estimated iteration count instead
        of a measured one — the Table-6 caveat that the FW model works
        from a-priori parameters applies here too.
        """
        core = sub.machine.node.core
        m_rows = int(sub.dmat.partition.sizes[rank])
        if m_rows == 0:
            return 0.0
        n_it = min(
            m_rows,
            int(
                math.ceil(
                    self.params.construct_iteration_constant
                    * math.sqrt(m_rows)
                    * math.log(2.0 / cfg.construct_tol)
                )
            ),
        )
        if name in ("LI", "LI-DVFS"):
            diag_nnz = sub.dmat.diag_block(rank).nnz
            flops = n_it * (2.0 * diag_nnz + 10.0 * m_rows)
            return core.compute_time(flops, sub.fmax_ghz)
        if name in ("LSI", "LSI-DVFS"):
            rows_nnz = sub.dmat.row_block(rank).nnz
            flops = n_it * (4.0 * rows_nnz + 10.0 * m_rows)
            return core.compute_time(flops, sub.fmax_ghz)
        if name == "LI-LU":
            # Banded-equivalent LU fill estimate: w ~= sqrt(m).
            w = max(1.0, math.sqrt(m_rows))
            return core.compute_time(
                2.0 * m_rows * w * w, sub.fmax_ghz, kind="factor"
            ) + core.compute_time(8.0 * m_rows * w, sub.fmax_ghz)
        if name == "LSI-QR":
            # Parallel LSQR to machine precision: ~m communication rounds.
            rows_nnz = sub.dmat.row_block(rank).nnz
            per_round = core.compute_time(
                4.0 * rows_nnz / sub.nranks, sub.fmax_ghz
            ) + 2.0 * sub.comm.collectives.allreduce(m_rows * 8.0)
            return m_rows * per_round
        return 0.0

    # ------------------------------------------------------------------
    # report assembly
    # ------------------------------------------------------------------
    def _assemble(
        self,
        experiment: "Experiment",
        sub: _Substrate,
        *,
        scheme: str,
        horizon: int,
        terms: _SchemeTerms,
        events: list[FaultEvent],
        victim_lists: list[list[int]],
        baseline_iters: int | None,
    ) -> SolveReport:
        cfg = experiment.config
        c = sub.costs
        t_solve = horizon * c.compute_max_s
        t_overhead = horizon * c.comm_s
        account = EnergyAccount()
        account.charges[PhaseTag.SOLVE] = Charge(
            t_solve, horizon * sub.iteration.compute_energy_j
        )
        if t_overhead > 0:
            account.charges[PhaseTag.OVERHEAD] = Charge(
                t_overhead, horizon * sub.iteration.comm_energy_j
            )
        for tag, time_s, energy_j in terms.phases:
            ch = account.charges.setdefault(tag, Charge())
            ch.time_s += time_s
            ch.energy_j += energy_j
        time_s = account.total_time_s

        rapl = RaplMeter()
        t_exec = t_solve + t_overhead
        if t_exec > 0:
            rapl.record(
                "iteration",
                0.0,
                t_exec,
                sub.iteration.average_power_w * terms.energy_multiplier,
            )
        cursor = t_exec
        for tag, phase_t, phase_e in terms.phases:
            if phase_t <= 0:
                continue
            rapl.record(tag.value, cursor, cursor + phase_t, phase_e / phase_t)
            cursor += phase_t

        iters = horizon + terms.extra_iters
        traffic = TrafficCounters(
            bytes_p2p=iters * c.bytes_per_iter,
            messages=iters * max(0, len(sub.dmat.halo_pair_bytes)),
            collectives=2 * iters,
        )
        details: dict = {
            "restarts": terms.restarts,
            "iteration_wall_s": c.wall_s,
            "dvfs_transitions": terms.dvfs_transitions,
            "operating_frequency_ghz": sub.fmax_ghz,
            "model": {
                "horizon_iters": horizon,
                "extra_fraction_per_fault": self.params.extra_fraction_per_fault,
                **(terms.model_params or {}),
            },
        }
        if terms.scheme_details is not None:
            details["scheme_details"] = terms.scheme_details
        report = SolveReport(
            scheme=scheme,
            converged=True,
            iterations=iters,
            final_relative_residual=cfg.tol,
            residual_history=np.array([1.0, cfg.tol]),
            time_s=time_s,
            account=account,
            rapl=rapl,
            faults=list(events),
            traffic=traffic,
            baseline_iters=baseline_iters,
            details=details,
        )
        if cfg.trace:
            self._attach_telemetry(report, sub, terms, events, victim_lists)
        return self._stamp(report)

    def _attach_telemetry(
        self,
        report: SolveReport,
        sub: _Substrate,
        terms: _SchemeTerms,
        events: list[FaultEvent],
        victim_lists: list[list[int]],
    ) -> None:
        """Aggregate telemetry synthesised from the model terms.

        Events carry modeled sim timestamps (faults at their scheduled
        iteration on the fault-free clock, recoveries one modeled
        construction later); phase metrics mirror the account exactly, so
        rollups and exports work identically on analytic cells.  Unlike
        the simulator there are no per-checkpoint events — the stream
        stays bounded by the fault count at any scale.
        """
        from repro.harness.tracing import (
            FaultInjected,
            PhaseEntered,
            RecoveryApplied,
        )
        from repro.obs.telemetry import Telemetry

        clock = {"now": 0.0}
        tel = Telemetry.for_solver(clock=lambda: clock["now"])
        with tel.spans.span("solve", scheme=report.scheme):
            clock["now"] = report.time_s

        for tag, time_s, energy_j in terms.phases:
            if tag.is_resilience and (time_s > 0 or energy_j > 0):
                tel.events.record(
                    PhaseEntered(
                        iteration=0,
                        sim_time_s=0.0,
                        phase=tag.value,
                        from_phase=PhaseTag.SOLVE.value,
                    )
                )
        m = tel.metrics
        wall = sub.costs.wall_s
        now = 0.0
        for event, victims in zip(events, victim_lists):
            t_fault = max(event.iteration * wall, now)
            tel.events.record(
                FaultInjected(
                    iteration=event.iteration,
                    sim_time_s=t_fault,
                    victim_rank=event.victim_rank,
                    fault_class=event.fault_class.label,
                    scope=event.scope.value,
                    n_blocks_lost=len(victims),
                )
            )
            t_recover = t_fault + terms.construct_per_fault_s
            tel.events.record(
                RecoveryApplied(
                    iteration=event.iteration,
                    sim_time_s=t_recover,
                    scheme=report.scheme,
                    victim_rank=event.victim_rank,
                    needs_restart=True,
                    construct_time_s=terms.construct_per_fault_s,
                )
            )
            now = t_recover
            m.counter(
                "solver.faults",
                fault_class=event.fault_class.label,
                scope=event.scope.value,
            ).inc()
            m.counter("solver.recoveries", scheme=report.scheme).inc(
                float(len(victims))
            )
            m.histogram("recovery.construct_s", scheme=report.scheme).observe(
                terms.construct_per_fault_s
            )
            tel.recovery_latency_histogram(report.scheme).observe(
                terms.construct_per_fault_s
            )
        for tag, charge in report.account.charges.items():
            m.counter("phase.time_s", phase=tag.value).inc(charge.time_s)
            m.counter("phase.energy_j", phase=tag.value).inc(charge.energy_j)
        m.counter("solver.iterations").inc(float(report.iterations))
        if terms.restarts:
            m.counter("solver.restarts").inc(float(terms.restarts))
        m.gauge("solver.sim_time_s").set(report.time_s)
        m.gauge("solver.energy_j").set(report.energy_j)
        m.gauge("solver.relative_residual").set(report.final_relative_residual)
        m.gauge("solver.converged").set(1.0)
        report.details["telemetry"] = tel
        report.details["trace"] = tel.events

    # ------------------------------------------------------------------
    @staticmethod
    def project(sizes, config=None):
        """Section-6 weak-scaling projection (Figure 9/10), the pure-model
        sweep this engine generalises.  Thin wrapper so the CLI's
        ``project`` subcommand runs through the engine layer."""
        from repro.core.models.projection import ProjectionConfig, project

        return project(sorted(sizes), config or ProjectionConfig())
