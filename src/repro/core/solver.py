"""The resilient solver: CG + recovery scheme on the simulated cluster.

:class:`ResilientSolver` owns the whole co-simulation the paper's
experiments perform on real hardware: it steps the distributed CG, prices
every iteration on the cluster substrate, feeds the phase-tagged energy
account and the simulated RAPL meter, injects scheduled faults into the
dynamic state, and dispatches recovery to the configured Table-2 scheme.
It implements the :class:`~repro.core.recovery.base.RecoveryServices`
facade the schemes charge their costs through.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cluster.comm import SimComm
from repro.cluster.machine import MachineSpec, paper_machine
from repro.cluster.network import NetworkModel
from repro.core.backends import DEFAULT_BACKEND, backend_names
from repro.core.cg import DistributedCG, IterationCosts, IterationPower
from repro.core.errors import ConvergenceError
from repro.core.recovery.base import RecoveryScheme
from repro.core.report import SolveReport
from repro.core.trajectory import TrajectoryMemo
from repro.faults.events import FaultEvent, blast_radius
from repro.faults.injector import FaultInjector
from repro.faults.schedule import EmptySchedule, FaultSchedule
from repro.matrices import cache as problem_cache
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition
from repro.power.capping import frequency_under_cap
from repro.power.dvfs import DvfsController, Governor
from repro.power.energy import EnergyAccount, PhaseTag, repeat_add
from repro.power.model import CoreState, PowerModel
from repro.power.rapl import RaplMeter


@dataclass
class SolverConfig:
    """Everything that parameterises one resilient solve."""

    nranks: int = 4
    tol: float = 1e-8
    max_iters: int = 200_000
    machine: MachineSpec = field(default_factory=paper_machine)
    network: NetworkModel = field(default_factory=NetworkModel)
    power: PowerModel = field(default_factory=PowerModel)
    seed: int = 0
    #: None for the paper's plain CG, "jacobi" for preconditioned CG
    #: (extension; see DistributedCG).
    preconditioner: str | None = None
    #: Machine power budget in watts (RAPL-limit style).  The solver
    #: derates every core to the highest ladder frequency whose
    #: all-active power fits the cap; None = uncapped (f_max).
    power_cap_w: float | None = None
    #: Record telemetry — a structured event stream (faults,
    #: recoveries, checkpoints, restarts), spans and metrics — in the
    #: report's ``details["telemetry"]``.
    trace: bool = False
    #: Fault-free iteration count; iterations beyond it are charged to
    #: the EXTRA phase.  Computed internally when a schedule is present
    #: and no value is supplied.
    baseline_iters: int | None = None
    #: Execution backend for the CG kernels (repro.core.backends):
    #: "batched" (default) vectorizes all ranks into one kernel sequence
    #: per iteration; "loop" is the rank-by-rank reference execution.
    #: Bit-identical by contract (tests/core/test_backend_equivalence.py).
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError("need at least one rank")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise ValueError("power cap must be positive")
        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {', '.join(backend_names())}"
            )


class ResilientSolver:
    """Solve ``A x = b`` under faults with a pluggable recovery scheme."""

    def __init__(
        self,
        a,
        b: np.ndarray,
        *,
        scheme: RecoveryScheme | None = None,
        schedule: FaultSchedule | None = None,
        config: SolverConfig | None = None,
        x0: np.ndarray | None = None,
    ) -> None:
        self.config = config or SolverConfig()
        cfg = self.config
        if isinstance(a, DistributedMatrix):
            if a.nranks != cfg.nranks:
                raise ValueError(
                    f"matrix distributed over {a.nranks} ranks but config "
                    f"says {cfg.nranks}"
                )
            self._dmat = a
        else:
            # Content-keyed: repeated solves over the same matrix share
            # one halo analysis (repro.matrices.cache).  A CSR input is
            # passed as is, so its memoized fingerprint is reused.
            self._dmat = problem_cache.distributed_matrix(
                a if sp.isspmatrix_csr(a) else sp.csr_matrix(a), cfg.nranks
            )
        self.scheme = scheme
        self.schedule = schedule or EmptySchedule()
        self.comm = SimComm(cfg.machine, cfg.nranks, cfg.network)
        self.cg = DistributedCG(
            self._dmat,
            b,
            x0=x0,
            tol=cfg.tol,
            max_iters=cfg.max_iters,
            preconditioner=cfg.preconditioner,
            backend=cfg.backend,
        )
        if cfg.power_cap_w is not None:
            op = frequency_under_cap(cfg.power, cfg.nranks, cfg.power_cap_w)
            self.f_op_ghz = op.f_ghz
        else:
            self.f_op_ghz = cfg.power.ladder.fmax_ghz
        self._slowdown = cfg.power.ladder.fmax_ghz / self.f_op_ghz
        # Measured at f_max and memoized by content key; the DVFS derate
        # below builds a private per-solve copy, so the cached entry
        # stays frequency-independent.
        costs = problem_cache.iteration_costs(
            self._dmat, self.comm, preconditioned=cfg.preconditioner is not None
        )
        if self._slowdown != 1.0:
            costs = IterationCosts(
                compute_s=costs.compute_s * self._slowdown,
                halo_s=costs.halo_s,
                allreduce_s=costs.allreduce_s,
                bytes_per_iter=costs.bytes_per_iter,
            )
        self.costs = costs
        self.dvfs = DvfsController(cfg.nranks, cfg.power.ladder)
        if self._slowdown != 1.0:
            self.dvfs.set_governor(Governor.USERSPACE)
            self.dvfs.set_all(self.f_op_ghz)
        self.account = EnergyAccount()
        self.rapl = RaplMeter()
        self.injector = FaultInjector(self._dmat.partition, seed=cfg.seed)
        if cfg.trace:
            from repro.obs.telemetry import Telemetry

            # Solver telemetry rides the simulated clock: every event,
            # span and metric is stamped with deterministic sim time, so
            # traced runs stay bit-identical across worker pools.
            self.obs: "Telemetry | None" = Telemetry.for_solver(
                clock=lambda: self.comm.now
            )
            self.trace = self.obs.events
        else:
            self.obs = None
            self.trace = None
        self._last_phase_tag: PhaseTag | None = None
        self._open_phase: list | None = None  # [tag, power, t0, t1]
        self._precompute_iteration_charges()

    # ==================================================================
    # RecoveryServices facade
    # ==================================================================
    @property
    def dmat(self) -> DistributedMatrix:
        return self._dmat

    @property
    def partition(self) -> BlockRowPartition:
        return self._dmat.partition

    @property
    def b(self) -> np.ndarray:
        return self.cg.b

    @property
    def x0(self) -> np.ndarray:
        return self.cg.x0

    @property
    def nranks(self) -> int:
        return self.config.nranks

    @property
    def iteration_wall_s(self) -> float:
        return self.costs.wall_s

    def charge_phase(self, tag: PhaseTag, duration_s: float, power_w: float) -> None:
        self._emit(tag, duration_s, power_w)

    def charge_overlapped(self, tag: PhaseTag, energy_j: float) -> None:
        self.account.charge_energy(tag, energy_j)

    def power_compute_w(self) -> float:
        return self._p_core_active * self.nranks

    def power_checkpoint_w(self) -> float:
        return self._p_core_idle_fmax * self.nranks

    def power_reconstruct_w(self, *, dvfs: bool) -> float:
        idle = self._p_core_idle_fmin if dvfs else self._p_core_idle_fmax
        return self._p_core_active + (self.nranks - 1) * idle

    def power_idle_w(self) -> float:
        return self._p_core_idle_fmax * self.nranks

    def local_compute_s(self, flops: float, *, kind: str = "spmv") -> float:
        core = self.comm.machine.node.core
        return core.compute_time(flops, self.f_op_ghz, kind=kind)

    def collective_allreduce_s(self, nbytes: float) -> float:
        return self.comm.collectives.allreduce(nbytes)

    def p2p_s(self, src: int, dst: int, nbytes: float) -> float:
        if src == dst:
            return 0.0
        same = self.comm.binding.same_node(src, dst)
        return self.comm.network.p2p_time(nbytes, same_node=same)

    def interconnect_p2p_s(self, nbytes: float) -> float:
        return self.comm.network.p2p_time(nbytes, same_node=False)

    def restart_cost_s(self) -> float:
        return self.costs.wall_s

    def apply_dvfs_reconstruct(self, victims) -> None:
        now = self.comm.now
        self.dvfs.set_governor(Governor.USERSPACE, time_s=now)
        ladder = self.config.power.ladder
        self.dvfs.set_all(ladder.fmin_ghz, time_s=now)
        if not isinstance(victims, (list, tuple)):
            victims = (int(victims),)
        # the reconstructing cores run at the cap-respecting frequency
        for victim_rank in victims:
            self.dvfs.set_frequency(victim_rank, self.f_op_ghz, time_s=now)

    def release_dvfs(self) -> None:
        now = self.comm.now
        if self._slowdown != 1.0:
            self.dvfs.set_all(self.f_op_ghz, time_s=now)
        else:
            self.dvfs.set_all(self.config.power.ladder.fmax_ghz, time_s=now)
            self.dvfs.set_governor(Governor.PERFORMANCE, time_s=now)

    def span(self, name: str, **attrs):
        """A sim-time span on this solve's telemetry (no-op untraced)."""
        if self.obs is None:
            return nullcontext()
        return self.obs.spans.span(name, **attrs)

    @property
    def metrics(self):
        """This solve's metrics registry, or ``None`` untraced."""
        return self.obs.metrics if self.obs is not None else None

    # ==================================================================
    # internals
    # ==================================================================
    def _enter_phase(self, tag: PhaseTag, iteration: int, sim_time_s: float) -> None:
        """Note a traced charge of positive time under ``tag``.

        One event per *entry* into a resilience phase, not per charge:
        contiguous EXTRA iterations collapse to a single transition.
        REDUNDANT is overlapped (zero-time) and never reaches here.
        """
        if tag is self._last_phase_tag:
            return
        if tag.is_resilience:
            from repro.harness.tracing import PhaseEntered

            self.trace.record(
                PhaseEntered(
                    iteration=iteration,
                    sim_time_s=sim_time_s,
                    phase=tag.value,
                    from_phase=(
                        self._last_phase_tag.value if self._last_phase_tag else ""
                    ),
                )
            )
        self._last_phase_tag = tag

    def _precompute_iteration_charges(self) -> None:
        pm = self.config.power
        f_op = self.f_op_ghz
        self._p_core_active = pm.core_power(f_op, CoreState.ACTIVE)
        self._p_core_idle_fmax = pm.core_power(f_op, CoreState.IDLE)
        self._p_core_idle_fmin = pm.core_power(pm.ladder.fmin_ghz, CoreState.IDLE)
        # Stragglers idle-wait at f_op until the reduction completes.
        self._iter_power = IterationPower.of(
            self.costs, self.nranks, self._p_core_active, self._p_core_idle_fmax
        )

    def _emit(self, tag: PhaseTag, duration_s: float, power_w: float) -> None:
        """Charge the account, advance simulated time, extend the RAPL log.

        The only place non-span time is charged, so (traced) the one
        place such a charge notes its phase entry."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        is_checkpoint = tag is PhaseTag.CHECKPOINT
        if self.trace is not None and is_checkpoint:
            from repro.harness.tracing import CheckpointWritten

            self.trace.record(
                CheckpointWritten(
                    iteration=self.cg.iteration,
                    sim_time_s=self.comm.now,
                    duration_s=duration_s,
                )
            )
        ctx = (
            self.span("checkpoint.write", iteration=self.cg.iteration)
            if self.obs is not None and is_checkpoint
            else nullcontext()
        )
        with ctx:
            energy = self.account.charge(tag, time_s=duration_s, power_w=power_w)
            if self.obs is not None and duration_s > 0:
                self._enter_phase(tag, self.cg.iteration, self.comm.now)
            mult = self.scheme.energy_multiplier if self.scheme else 1.0
            if mult > 1.0:
                # The DMR replica draws the same power concurrently.
                self.account.charge_energy(
                    PhaseTag.REDUNDANT, (mult - 1.0) * energy
                )
            if duration_s == 0:
                return
            t0 = self.comm.now
            self.comm.clocks.synchronize(duration_s)
            self._rapl_append(tag.value, t0, self.comm.now, power_w * mult)

    def _rapl_append(self, tag: str, t0: float, t1: float, power_w: float) -> None:
        """Append to the RAPL log, merging contiguous equal-power phases."""
        if (
            self._open_phase is not None
            and self._open_phase[0] == tag
            and abs(self._open_phase[1] - power_w) < 1e-9
            and abs(self._open_phase[3] - t0) < 1e-9
        ):
            self._open_phase[3] = t1
        else:
            self._flush_phase()
            self._open_phase = [tag, power_w, t0, t1]

    def _flush_phase(self) -> None:
        if self._open_phase is not None:
            tag, power, t0, t1 = self._open_phase
            self.rapl.record(tag, t0, t1, power)
            self._open_phase = None

    def _charge_span(self, n: int, is_extra: bool) -> None:
        """Book ``n`` identical CG iterations in one go.

        Float-faithfully replays ``n`` one-iteration bookings (DESIGN.md
        §5e): account charges, clocks, traffic, the RAPL log and — when
        traced — phase transition events all end up bit-identical to
        charging the iterations one by one, which the per-iteration
        reference loop in ``tests/differential.py`` does.
        Replay is exact because every per-iteration quantity is constant
        by construction (:class:`IterationCosts`) and per-iteration
        accumulation of a constant is a scalar recurrence
        (:func:`repeat_add`).  Schemes set at most one of
        ``energy_multiplier`` / overlap energy, so the per-tag
        accumulation order of REDUNDANT stays exact.
        """
        if n <= 0:
            return
        c = self.costs
        ip = self._iter_power
        mult = self.scheme.energy_multiplier if self.scheme else 1.0
        account = self.account
        wall = c.wall_s
        if is_extra:
            energy = account.charge_span(
                PhaseTag.EXTRA, time_s=wall, power_w=ip.average_power_w, n=n
            )
        else:
            energy = account.charge_span(
                PhaseTag.SOLVE, time_s=c.compute_max_s, power_w=ip.compute_power_w, n=n
            )
            if c.comm_s > 0:
                energy += account.charge_span(
                    PhaseTag.OVERHEAD,
                    time_s=c.comm_s,
                    power_w=self.power_compute_w(),
                    n=n,
                )
        if mult > 1.0:
            account.charge_energy_span(
                PhaseTag.REDUNDANT, (mult - 1.0) * energy, n
            )
        ov = self.scheme.overlap_energy_per_iteration_j if self.scheme else 0.0
        if ov > 0.0:
            account.charge_energy_span(PhaseTag.REDUNDANT, ov, n)
        # Every per-iteration charge synchronises all ranks, so clocks
        # stay uniform throughout a solve and a span's clock advance
        # replays as a scalar accumulation.
        clocks = self.comm.clocks
        t0 = clocks.now
        t1 = repeat_add(t0, wall, n)
        clocks.jump_to(t1)
        # Contiguous equal-power iterations merge into one open RAPL
        # phase, so a single span-wide append is the log that n
        # one-iteration appends would grow.
        tag = "extra" if is_extra else "iteration"
        self._rapl_append(tag, t0, t1, ip.average_power_w * mult)
        traffic = self.comm.traffic
        traffic.bytes_p2p = repeat_add(traffic.bytes_p2p, c.bytes_per_iter, n)
        traffic.messages += n * max(0, len(self._dmat.halo_pair_bytes))
        traffic.collectives += 2 * n
        if self.obs is not None:
            # Within a span only the *first* charge can change phase
            # (iterations repeat SOLVE/OVERHEAD or EXTRA).
            first = self.cg.iteration - n + 1
            if is_extra:
                if wall > 0:
                    self._enter_phase(PhaseTag.EXTRA, first, t0)
            else:
                if c.compute_max_s > 0:
                    self._enter_phase(PhaseTag.SOLVE, first, t0)
                if c.comm_s > 0:
                    self._enter_phase(PhaseTag.OVERHEAD, first, t0)

    def _handle_fault(self, event: FaultEvent) -> None:
        """Damage and recover every rank in the event's blast radius.

        Block-local schemes (fills, redundancy) recover one lost block
        at a time, each reconstruction seeing the blocks recovered
        before it; joint schemes (interpolation unions, ESR) repair the
        whole victim set in one recover() call; global schemes
        (checkpoint rollback) restore the entire state in one shot.
        """
        cg = self.cg
        victims = blast_radius(event, self.comm.binding)
        self.injector.inject(
            event, cg.state.x, cg.state.r, cg.state.p, victims=victims
        )
        t_fault = self.comm.now
        if self.trace is not None:
            from repro.harness.tracing import FaultInjected

            self.trace.record(
                FaultInjected(
                    iteration=event.iteration,
                    sim_time_s=t_fault,
                    victim_rank=event.victim_rank,
                    fault_class=event.fault_class.label,
                    scope=event.scope.value,
                    n_blocks_lost=len(victims),
                )
            )
            self.obs.metrics.counter(
                "solver.faults",
                fault_class=event.fault_class.label,
                scope=event.scope.value,
            ).inc()
        if len(victims) > 1:
            # Wide-scope damage: neutralise every lost block first so a
            # block-local reconstruction never reads a sibling's poison.
            for v in victims:
                cg.state.x[self.partition.slice_of(v)] = 0.0
        if self.scheme.recovers_globally:
            recover_events = [
                FaultEvent(
                    event.iteration, victims[0], event.fault_class, event.scope
                )
            ]
        elif self.scheme.recovers_jointly and len(victims) > 1:
            recover_events = [
                FaultEvent(
                    event.iteration,
                    victims[0],
                    event.fault_class,
                    event.scope,
                    victims=tuple(victims),
                )
            ]
        else:
            recover_events = [
                FaultEvent(event.iteration, v, event.fault_class, event.scope)
                for v in victims
            ]
        outcomes = []
        scheme_label = self.scheme.name.lower()
        for ev in recover_events:
            with self.span(f"recovery.{scheme_label}", rank=ev.victim_rank):
                outcome = self.scheme.recover(self, cg.state, ev)
            outcomes.append(outcome)
            if self.trace is not None:
                from repro.harness.tracing import RecoveryApplied

                self.trace.record(
                    RecoveryApplied(
                        iteration=ev.iteration,
                        sim_time_s=self.comm.now,
                        scheme=self.scheme.name,
                        victim_rank=ev.victim_rank,
                        needs_restart=outcome.needs_restart,
                        construct_time_s=outcome.construct_time_s,
                    )
                )
                m = self.obs.metrics
                m.counter("solver.recoveries", scheme=self.scheme.name).inc()
                m.histogram(
                    "recovery.construct_s", scheme=self.scheme.name
                ).observe(outcome.construct_time_s)
                self.obs.recovery_latency_histogram(self.scheme.name).observe(
                    self.comm.now - t_fault
                )
        if any(o.needs_restart for o in outcomes):
            with self.span("solver.restart", iteration=event.iteration):
                cg.restart()
                self._emit(
                    PhaseTag.EXTRA, self.restart_cost_s(), self.power_compute_w()
                )
            if self.trace is not None:
                from repro.harness.tracing import SolverRestarted

                self.trace.record(
                    SolverRestarted(
                        iteration=event.iteration, sim_time_s=self.comm.now
                    )
                )
                self.obs.metrics.counter("solver.restarts").inc()

    def _fault_free_horizon(self, trajectory: TrajectoryMemo | None) -> int:
        """Iterations of a fault-free run (for schedules and EXTRA split),
        walked through ``trajectory`` when given."""
        probe = DistributedCG(
            self._dmat,
            self.cg.b,
            x0=self.cg.x0,
            tol=self.config.tol,
            max_iters=self.config.max_iters,
            preconditioner=self.config.preconditioner,
            backend=self.config.backend,
        )
        if (
            trajectory is not None
            and not probe.converged
            and trajectory.start(probe) is not None
        ):
            _, _, breakdown = trajectory.walk(probe, probe.max_iters)
            if breakdown:
                probe.step()
        # finishes the walk's job off the trajectory (a no-op once converged)
        iters = probe.solve_fault_free()
        if not probe.converged:
            raise ConvergenceError(
                tol=self.config.tol,
                final_residual=probe.relative_residual,
                iterations=iters,
            )
        return iters

    # ==================================================================
    # main loop
    # ==================================================================
    def solve(self, *, trajectory: TrajectoryMemo | None = None) -> SolveReport:
        """Run to convergence under the configured faults and scheme.

        ``trajectory`` shares the fault-free walk with the other solves
        of the same problem (:mod:`repro.core.trajectory`); the report
        is bit-identical with or without it.
        """
        cfg = self.config
        baseline = cfg.baseline_iters
        events: list[FaultEvent] = []
        if not isinstance(self.schedule, EmptySchedule):
            if baseline is None:
                baseline = self._fault_free_horizon(trajectory)
            events = self.schedule.events(
                nranks=cfg.nranks, horizon_iters=baseline
            )
        pending = deque(sorted(events, key=lambda e: e.iteration))
        handled: list[FaultEvent] = []
        if self.scheme is not None:
            self.scheme.setup(self)

        with self.span(
            "solve", scheme=self.scheme.name if self.scheme else "FF"
        ):
            self._run(pending, handled, baseline, trajectory)

        self._flush_phase()
        report = self._build_report(
            handled, baseline, self._finish_details(baseline)
        )
        if self.obs is not None:
            from repro.obs.telemetry import write_solve_metrics

            write_solve_metrics(self.obs.metrics, report)
        return report

    def _run(
        self,
        pending: deque[FaultEvent],
        handled: list[FaultEvent],
        baseline: int | None,
        trajectory: TrajectoryMemo | None,
    ) -> None:
        """The span-batched solve loop (DESIGN.md §5e).

        Fault-free stretches run as one tight numeric kernel
        (:meth:`~repro.core.cg.DistributedCG.step_span`) plus one
        bookkeeping replay (:meth:`_charge_span`).  Span boundaries are
        everything a per-iteration loop can observe between iterations:
        the next scheduled fault, the scheme's hook cadence
        (:meth:`~repro.core.recovery.base.RecoveryScheme.next_hook_iteration`),
        the baseline→EXTRA crossover, and the iteration cap; convergence
        and CG breakdown are checked per iteration inside the kernel.

        With a ``trajectory`` memo, a span that starts on the fault-free
        trajectory is walked through it: whatever part of the span
        another solve already walked is installed, only the rest is
        stepped.  Accounting, hooks and events run unchanged either way.
        """
        cfg = self.config
        cg = self.cg
        scheme = self.scheme
        # A scheme that never overrides the hook needs no hook calls
        # (the base hook is a no-op); one that does is called once per
        # span end, with spans capped at its declared cadence.
        has_hook = scheme is not None and (
            type(scheme).on_iteration_end is not RecoveryScheme.on_iteration_end
        )
        max_iters = cfg.max_iters
        # The memo's record of the CG state while the solve is provably
        # on the fault-free trajectory; None once it has left it.
        on = trajectory.start(cg) if trajectory is not None else None
        while not cg.converged and cg.iteration < max_iters:
            it = cg.iteration
            end = max_iters
            if pending:
                # Events fire after the iteration they are scheduled at
                # (or after the next iteration when already past due).
                due = pending[0].iteration
                end = min(end, due if due > it else it + 1)
            if baseline is not None and it < baseline:
                # EXTRA starts right after the baseline iteration; a span
                # must not straddle the crossover.
                end = min(end, baseline)
            if has_hook:
                nh = scheme.next_hook_iteration(it)
                end = min(end, it + 1 if nh is None else nh)
            end = max(int(min(end, max_iters)), it + 1)
            if on is not None and on.matches(cg.state):
                on, taken, breakdown = trajectory.walk(cg, end - it)
            else:
                on = None
                taken, breakdown = cg.step_span(end - it)
            if taken:
                self._charge_span(
                    taken,
                    is_extra=baseline is not None and cg.iteration > baseline,
                )
            if breakdown:
                # Fall back to the one-iteration stepper for the broken
                # iteration: its restart-and-retry is the reference.
                cg.step()
                self._charge_span(
                    1, is_extra=baseline is not None and cg.iteration > baseline
                )
            if has_hook:
                scheme.on_iteration_end(self, cg.state)
            self._process_due_events(pending, handled)

    def _process_due_events(
        self, pending: deque[FaultEvent], handled: list[FaultEvent]
    ) -> None:
        cg = self.cg
        while pending and pending[0].iteration <= cg.iteration:
            event = pending.popleft()
            if event.fault_class.needs_recovery:
                if self.scheme is None:
                    raise RuntimeError(
                        "fault injected but no recovery scheme configured"
                    )
                self._handle_fault(event)
            handled.append(event)

    def _finish_details(self, baseline: int | None) -> dict:
        cg = self.cg
        details: dict = {
            "restarts": cg.restarts,
            "iteration_wall_s": self.costs.wall_s,
            "dvfs_transitions": self.dvfs.transition_count(),
            "operating_frequency_ghz": self.f_op_ghz,
        }
        if self.obs is not None:
            details["telemetry"] = self.obs
        if self.scheme is not None:
            details["scheme_details"] = _scheme_details(self.scheme)
        return details

    def _build_report(
        self, handled: list[FaultEvent], baseline: int | None, details: dict
    ) -> SolveReport:
        cg = self.cg
        return SolveReport(
            scheme=self.scheme.name if self.scheme else "FF",
            converged=cg.converged,
            iterations=cg.iteration,
            final_relative_residual=cg.relative_residual,
            residual_history=np.asarray(cg.residual_history),
            time_s=self.comm.now,
            account=self.account,
            rapl=self.rapl,
            faults=handled,
            traffic=self.comm.traffic,
            baseline_iters=baseline,
            details=details,
        )


def _scheme_details(scheme: RecoveryScheme) -> dict:
    out: dict = {}
    for attr in ("constructions", "recoveries", "rollback_reexecute_iters"):
        if hasattr(scheme, attr):
            out[attr] = getattr(scheme, attr)
    manager = getattr(scheme, "manager", None)
    if manager is not None:
        if hasattr(manager, "writes"):
            out["checkpoints_written"] = manager.writes
            out["interval_iters"] = manager.interval_iters
        else:  # multi-level manager
            out["memory_writes"] = manager.memory_writes
            out["disk_writes"] = manager.disk_writes
            out["memory_restores"] = manager.memory_restores
            out["disk_restores"] = manager.disk_restores
    if hasattr(scheme, "restore_levels"):
        out["restore_levels"] = list(scheme.restore_levels)
    return out
