"""Distributed Conjugate Gradient stepper.

The numerics are the textbook CG recurrence on the *global* vectors —
mathematically identical to the rank-distributed execution, since
block-row SpMV plus halo exchange reproduces the global SpMV exactly and
the dot products are global allreduces.  The distribution affects (a)
which rows a fault destroys and (b) the cost model; both are handled
explicitly (:class:`IterationCosts` prices one iteration on the simulated
cluster).

The stepper is restartable: after a recovery scheme rewrites part of x,
:meth:`DistributedCG.restart` recomputes the true residual and resets the
search direction, which is the standard way iterative solvers resume
after forward recovery or rollback ("reconstructing x forces
reconstruction of other variables", Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cluster.comm import SimComm
from repro.core.backends import DEFAULT_BACKEND, make_backend
from repro.matrices.distributed import BYTES_PER_ENTRY, DistributedMatrix

#: CG performs two global reductions per iteration (p.q and r.r).
ALLREDUCES_PER_ITER = 2
#: axpy/dot flops per local row per iteration: x,r,p updates (3 axpys =
#: 6 flops) plus two dots (4 flops).
DENSE_FLOPS_PER_ROW = 10
#: Jacobi PCG adds the z = M^-1 r scaling, the r.z dot and the explicit
#: residual norm: 5 more flops per local row.
PCG_EXTRA_FLOPS_PER_ROW = 5
#: Preconditioners :class:`DistributedCG` accepts besides ``None``.
PRECONDITIONERS = ("jacobi",)


@dataclass
class CGState:
    """The dynamic data of CG: everything a fault can destroy."""

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rz: float
    iteration: int = 0

    def copy(self) -> "CGState":
        return CGState(self.x.copy(), self.r.copy(), self.p.copy(), self.rz, self.iteration)


@dataclass(frozen=True)
class IterationCosts:
    """Pre-computed per-iteration costs on the simulated cluster.

    All quantities are constant across iterations because CG's work per
    iteration is constant, so they are computed once at setup.
    """

    #: Per-rank local compute seconds (SpMV + BLAS-1) at f_max.
    compute_s: np.ndarray
    #: Seconds of halo exchange (per-rank max folded in).
    halo_s: float
    #: Seconds of the two dot-product allreduces.
    allreduce_s: float
    #: Bytes moved per iteration (halo + collective contributions).
    bytes_per_iter: float

    # The three derived scalars are hot — the solver reads them on every
    # charge — so they are cached per instance.  ``cached_property``
    # stores into the instance ``__dict__`` directly, which a frozen
    # dataclass permits (only ``__setattr__`` is blocked), and the cache
    # never goes stale because every field is immutable by contract.
    @cached_property
    def compute_max_s(self) -> float:
        return float(self.compute_s.max())

    @cached_property
    def comm_s(self) -> float:
        return self.halo_s + self.allreduce_s

    @cached_property
    def wall_s(self) -> float:
        """Critical-path seconds of one iteration."""
        return self.compute_max_s + self.comm_s

    @staticmethod
    def measure(
        dmat: DistributedMatrix, comm: SimComm, *, preconditioned: bool = False
    ) -> "IterationCosts":
        """Price one CG iteration by replaying its communication pattern
        on a scratch copy of the communicator's cost machinery."""
        core = comm.machine.node.core
        fmax = core.ladder.fmax_ghz
        sizes = dmat.partition.sizes.astype(np.float64)
        compute = np.array(
            [
                core.compute_time(float(f), fmax)
                for f in dmat.spmv_flops.astype(np.float64)
            ]
        )
        dense_per_row = DENSE_FLOPS_PER_ROW + (
            PCG_EXTRA_FLOPS_PER_ROW if preconditioned else 0
        )
        compute += np.array(
            [core.compute_time(dense_per_row * s, fmax, kind="dense") for s in sizes]
        )
        # Halo: charge the busiest rank's exchange time as the step cost.
        per_rank = np.zeros(dmat.nranks)
        total_bytes = 0.0
        for (src, dst), nbytes in dmat.halo_pair_bytes.items():
            same = comm.binding.same_node(src, dst)
            cost = comm.network.p2p_time(nbytes, same_node=same)
            per_rank[src] += cost
            per_rank[dst] += cost
            total_bytes += nbytes
        halo_s = float(per_rank.max()) if dmat.nranks > 1 else 0.0
        allreduce_s = ALLREDUCES_PER_ITER * comm.collectives.allreduce(BYTES_PER_ENTRY)
        coll_bytes = ALLREDUCES_PER_ITER * BYTES_PER_ENTRY * dmat.nranks
        return IterationCosts(
            compute_s=compute,
            halo_s=halo_s,
            allreduce_s=allreduce_s,
            bytes_per_iter=total_bytes + coll_bytes,
        )


@dataclass(frozen=True)
class IterationPower:
    """How one CG iteration's energy splits on the simulated cluster.

    The one pricing rule both engines share: the solver charges it once
    per iteration, the analytic engine multiplies it by the horizon.
    Each rank computes its local work active, stragglers idle until the
    busiest rank finishes (SOLVE), then every rank communicates active
    (OVERHEAD).
    """

    compute_energy_j: float
    comm_energy_j: float
    #: SOLVE-phase power: the compute share over the busiest rank's time.
    compute_power_w: float
    #: Iteration-average power over the critical-path wall time.
    average_power_w: float

    @classmethod
    def of(
        cls, costs: IterationCosts, nranks: int, p_active_w: float, p_idle_w: float
    ) -> "IterationPower":
        """``p_active_w`` / ``p_idle_w``: one core's draw, active and
        idle, at the operating frequency."""
        sum_compute = float(costs.compute_s.sum())
        t_max = costs.compute_max_s
        compute = p_active_w * sum_compute + p_idle_w * (nranks * t_max - sum_compute)
        comm = nranks * p_active_w * costs.comm_s
        energy = compute + comm
        return cls(
            compute_energy_j=compute,
            comm_energy_j=comm,
            compute_power_w=compute / t_max if t_max > 0 else 0.0,
            average_power_w=energy / costs.wall_s if costs.wall_s > 0 else 0.0,
        )


class DistributedCG:
    """Restartable CG over a :class:`DistributedMatrix`.

    Parameters
    ----------
    dmat, b:
        The SPD system.
    x0:
        Initial guess (defaults to zero, the paper's FI reference point).
    tol:
        Relative-residual convergence tolerance (paper: 1e-12 on the real
        suite; our scaled suite uses 1e-8, see ``matrices/suite.py``).
    max_iters:
        Hard iteration cap.
    preconditioner:
        ``None`` for the paper's plain CG, or ``"jacobi"`` for
        diagonally preconditioned CG — the extension hook for the
        paper's future-work direction of studying more applications.
        All recovery schemes work unchanged: they rewrite x and the
        solver restarts the (preconditioned) recurrence.
    backend:
        How the kernels execute (:mod:`repro.core.backends`):
        ``"batched"`` (default) runs all ranks as one vectorized kernel
        sequence per iteration; ``"loop"`` is the rank-by-rank reference
        execution.  Bit-identical by contract — the backend changes
        wall-clock cost only, never a single bit of the numerics.
    """

    def __init__(
        self,
        dmat: DistributedMatrix,
        b: np.ndarray,
        *,
        x0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_iters: int = 200_000,
        preconditioner: str | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (dmat.n,):
            raise ValueError(f"b of shape {b.shape} does not match n={dmat.n}")
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if max_iters < 1:
            raise ValueError("max_iters must be positive")
        self.dmat = dmat
        self.b = b
        self.tol = tol
        self.max_iters = max_iters
        self.x0 = (
            np.zeros(dmat.n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
        )
        if self.x0.shape != (dmat.n,):
            raise ValueError("x0 does not match system size")
        if preconditioner not in (None, *PRECONDITIONERS):
            raise ValueError("preconditioner must be None or 'jacobi'")
        self.preconditioner = preconditioner
        if preconditioner == "jacobi":
            diag = dmat.a.diagonal()
            if np.any(diag <= 0):
                raise ValueError("Jacobi preconditioning needs a positive diagonal")
            self._minv = 1.0 / diag
        else:
            self._minv = None
        bnorm = float(np.linalg.norm(b))
        self._bnorm = bnorm if bnorm > 0 else 1.0
        self.backend = backend
        self._backend = make_backend(backend, self)  # validates the name
        self.residual_history: list[float] = []
        self.state = self._fresh_state(self.x0)
        self.restarts = 0

    # ------------------------------------------------------------------
    def _fresh_state(self, x: np.ndarray) -> CGState:
        r = self.b - self._backend.matvec(x)
        z = r * self._minv if self._minv is not None else r
        return CGState(x=np.array(x, copy=True), r=r, p=z.copy(), rz=float(r @ z))

    def restart(self) -> None:
        """Recompute the true residual from the current x and reset the
        search direction.  Called after any recovery that rewrites x."""
        st = self.state
        it = st.iteration
        self.state = self._fresh_state(st.x)
        self.state.iteration = it
        self.restarts += 1

    # ------------------------------------------------------------------
    @property
    def relative_residual(self) -> float:
        if self._minv is None:
            return float(np.sqrt(max(self.state.rz, 0.0)) / self._bnorm)
        return float(np.linalg.norm(self.state.r) / self._bnorm)

    @property
    def converged(self) -> bool:
        return self.relative_residual <= self.tol

    @property
    def iteration(self) -> int:
        return self.state.iteration

    def step(self) -> float:
        """One CG iteration; returns the new relative residual."""
        st = self.state
        q = self._backend.matvec(st.p)
        pq = float(st.p @ q)
        if pq <= 0 or not np.isfinite(pq):
            # Breakdown: the state is numerically dead (e.g. NaN-poisoned
            # by an unrecovered fault).  Re-anchor on the true residual.
            self.restart()
            st = self.state
            q = self._backend.matvec(st.p)
            pq = float(st.p @ q)
            if pq <= 0 or not np.isfinite(pq):
                raise FloatingPointError(
                    "CG breakdown: matrix not SPD or state unrecoverable"
                )
        alpha = st.rz / pq
        st.x += alpha * st.p
        st.r -= alpha * q
        z = st.r * self._minv if self._minv is not None else st.r
        rz_new = float(st.r @ z)
        beta = rz_new / st.rz if st.rz > 0 else 0.0
        st.p = z + beta * st.p
        st.rz = rz_new
        st.iteration += 1
        rel = self.relative_residual
        self.residual_history.append(rel)
        return rel

    def step_span(self, max_steps: int) -> tuple[int, bool]:
        """Run up to ``max_steps`` iterations in one tight fused loop.

        Bit-identical to calling :meth:`step` repeatedly: the kernel
        performs the same floating-point operations in the same order,
        records the same residual-history values, and checks convergence
        after every iteration, so a span never overshoots the tolerance.
        It stops early on convergence, or on CG breakdown *before*
        consuming the broken iteration — callers then invoke :meth:`step`
        once, whose restart-and-retry handling covers breakdown exactly
        as a per-iteration loop does.

        Residuals are written into a preallocated scratch array and
        spliced onto ``residual_history`` at span end.  Returns
        ``(iterations_taken, breakdown)``.

        Execution is delegated to the configured backend
        (:mod:`repro.core.backends`): ``batched`` fuses all ranks into
        one vectorized kernel sequence per iteration, ``loop`` steps
        the ranks one at a time — both honour this contract bit for
        bit.
        """
        return self._backend.step_span(max_steps)

    def solve_fault_free(self) -> int:
        """Run to convergence with no faults; returns iterations used."""
        while not self.converged and self.state.iteration < self.max_iters:
            taken, breakdown = self.step_span(
                self.max_iters - self.state.iteration
            )
            if breakdown:
                self.step()  # one-iteration restart-and-retry breakdown handling
        return self.state.iteration
