"""Interpolation-based forward recovery: LI and LSI (Sections 3.2 and 4).

LI (Eq. 17/19) reconstructs the lost block from the victim's own rows:

    A_{p_i,p_i} x_i = y,     y = b_{p_i} - sum_{j != i} A_{p_i,p_j} x_j

LSI (Eq. 18/20/21) solves the least-squares problem over the victim's
*column* block; for SPD A the normal equations become local to p_i:

    (A_{p_i,:} A_{p_i,:}^T) x_i = A_{p_i,:} beta,
    beta = b - sum_{j != i} A_{:,p_j} x_j

``method`` selects the construction algorithm:

* ``"lu"`` (LI only) — prior work's exact sequential sparse LU [2];
* ``"qr"`` (LSI only) — prior work's exact parallel least-squares [2];
* ``"cg"`` — the paper's optimization (Section 4.1): a *local* CG run to
  a loose ``construct_tol``.  The exact solution is unnecessary because
  the interpolant itself only approximates the lost data.

``dvfs=True`` (CG method only) enables the Section-4.2 power schedule:
during construction the victim's core stays at f_max while every other
core drops to f_min, cutting node power ~0.75x -> ~0.45x of compute.

Concurrent failures (``event.victims`` with several ranks) are repaired
jointly: victims are grouped into maximal runs of contiguous ranks and
each group's *union* block is reconstructed as one interpolation system
— the union of the lost diagonal blocks for LI, the union of the lost
column blocks for LSI.  A fault that loses every rank leaves no
surviving data to interpolate from, so that degenerate case falls back
to block-by-block reconstruction against the zeroed remainder.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.backends import csr_matvec
from repro.core.cg import CGState
from repro.core.recovery.base import (
    RecoveryOutcome,
    RecoveryScheme,
    RecoveryServices,
    obs_span,
)
from repro.core.recovery.localsolve import (
    exact_least_squares,
    local_cg,
    lu_solve_with_stats,
)
from repro.faults.events import FaultEvent
from repro.matrices.distributed import BYTES_PER_ENTRY
from repro.power.energy import PhaseTag

#: Local construction CG iteration cap, as a multiple of the block size.
MAX_LOCAL_ITER_FACTOR = 10


def contiguous_groups(victims) -> list[list[int]]:
    """Sorted victims split into maximal runs of consecutive ranks."""
    vs = sorted(victims)
    groups = [[vs[0]]]
    for v in vs[1:]:
        if v == groups[-1][-1] + 1:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


class _InterpolationBase(RecoveryScheme):
    """Shared mechanics of LI and LSI."""

    recovers_jointly = True

    def __init__(
        self,
        *,
        method: str,
        construct_tol: float,
        dvfs: bool,
        valid_methods: tuple[str, ...],
    ) -> None:
        if method not in valid_methods:
            raise ValueError(f"method must be one of {valid_methods}, got {method!r}")
        if construct_tol <= 0:
            raise ValueError("construction tolerance must be positive")
        if dvfs and method != "cg":
            raise ValueError(
                "the DVFS schedule applies to the local CG construction only"
            )
        self.method = method
        self.construct_tol = construct_tol
        self.dvfs = dvfs
        self.constructions: list[dict] = []

    def setup(self, services: RecoveryServices) -> None:
        self.constructions = []

    # -- helpers --------------------------------------------------------
    def _charge_rhs_comm(
        self,
        services: RecoveryServices,
        dst: int,
        exclude: "set[int] | frozenset[int]",
        nbytes_in: float,
    ) -> float:
        """``dst`` gathers the remote data its right-hand side needs
        from every surviving rank (those outside ``exclude``)."""
        total = 0.0
        survivors = max(1, services.nranks - len(exclude))
        for src in range(services.nranks):
            if src in exclude:
                continue
            share = nbytes_in / survivors
            total += services.p2p_s(src, dst, share)
        power = services.power_compute_w()
        services.charge_phase(PhaseTag.RECONSTRUCT, total, power)
        return total

    def _charge_construction(
        self,
        services: RecoveryServices,
        group: "list[int]",
        seconds: float,
        *,
        parallel: bool,
    ) -> None:
        with obs_span(
            services, "recovery.construct", scheme=self.name,
            rank=group[0], method=self.method,
        ):
            if parallel:
                power = services.power_compute_w()
            else:
                if self.dvfs:
                    # Bare int for the single-victim degenerate case so
                    # pre-victim-set services/fakes keep working.
                    services.apply_dvfs_reconstruct(
                        group[0] if len(group) == 1 else tuple(group)
                    )
                power = services.power_reconstruct_w(dvfs=self.dvfs)
            services.charge_phase(PhaseTag.RECONSTRUCT, seconds, power)
            if not parallel and self.dvfs:
                services.release_dvfs()

    def _victim_groups(
        self, services: RecoveryServices, event: FaultEvent
    ) -> list[list[int]]:
        """How to partition the event's victim set into repair units."""
        victims = list(event.victims)
        if len(victims) >= services.nranks:
            # Every rank lost: no survivors to interpolate around, so
            # reconstruct block by block against the zeroed remainder
            # (the historical wide-scope behaviour).
            return [[v] for v in victims]
        return contiguous_groups(victims)

    def _union_slice(self, services: RecoveryServices, group: "list[int]"):
        start = services.partition.slice_of(group[0]).start
        stop = services.partition.slice_of(group[-1]).stop
        return slice(start, stop)

    def _finish(
        self, services: RecoveryServices, detail: dict
    ) -> RecoveryOutcome:
        # The post-recovery restart (true-residual recomputation) is
        # charged uniformly by the solver for every needs_restart scheme.
        self.constructions.append(detail)
        return RecoveryOutcome(
            needs_restart=True,
            construct_time_s=detail.get("construct_s", 0.0),
            detail=detail,
        )


class LinearInterpolation(_InterpolationBase):
    """LI: solve the local diagonal block for the lost entries (Eq. 19)."""

    def __init__(
        self,
        *,
        method: str = "cg",
        construct_tol: float = 1e-6,
        dvfs: bool = False,
    ) -> None:
        super().__init__(
            method=method,
            construct_tol=construct_tol,
            dvfs=dvfs,
            valid_methods=("cg", "lu"),
        )
        self.name = "LI-DVFS" if dvfs else "LI"

    def recover(
        self, services: RecoveryServices, state: CGState, event: FaultEvent
    ) -> RecoveryOutcome:
        groups = self._victim_groups(services, event)
        total_s = 0.0
        group_details = []
        for group in groups:
            construct_s, stats_detail = self._recover_group(
                services, state, group
            )
            total_s += construct_s
            group_details.append(stats_detail)
        detail = {
            "scheme": self.name,
            "method": self.method,
            "construct_s": total_s,
        }
        if len(groups) == 1:
            detail.update(group_details[0])
        else:
            detail["groups"] = [
                {"victims": g, **d} for g, d in zip(groups, group_details)
            ]
        return self._finish(services, detail)

    def _recover_group(
        self, services: RecoveryServices, state: CGState, group: "list[int]"
    ) -> "tuple[float, dict]":
        sl = self._union_slice(services, group)
        if len(group) == 1:
            rows = services.dmat.row_block(group[0])
            diag = services.dmat.diag_block(group[0])
        else:
            rows = sp.vstack(
                [services.dmat.row_block(v) for v in group], format="csr"
            )
            diag = rows[:, sl].tocsr()
        n_loc = sl.stop - sl.start

        # Zero the damaged entries so the off-diagonal product excludes
        # the group's own (lost) contribution: y = b_U - sum_{j not in U} A_Uj x_j.
        state.x[sl] = 0.0
        y = services.b[sl] - rows @ state.x

        # The group pulls the halo x entries the product above consumed;
        # halo traffic between group members is lost data, not a transfer.
        group_set = set(group)
        nbytes_in = 0.0
        for v in group:
            halo = services.dmat.blocks(v).halo_recv_counts
            nbytes_in += sum(
                cnt for src, cnt in halo.items() if src not in group_set
            ) * BYTES_PER_ENTRY
        self._charge_rhs_comm(services, group[0], group_set, nbytes_in)

        if self.method == "lu":
            x_i, lu = lu_solve_with_stats(diag, y)
            construct_s = services.local_compute_s(
                lu.factor_flops, kind="factor"
            ) + services.local_compute_s(lu.solve_flops)
            stats_detail = {"factor_nnz": lu.factor_nnz}
        else:
            # Jacobi preconditioning: the diagonal block inherits the
            # matrix's heterogeneous row scales, which would otherwise
            # dominate the local iteration count.
            diag_of_block = np.maximum(diag.diagonal(), 1e-300)
            x_i, stats = local_cg(
                csr_matvec(diag),
                y,
                tol=self.construct_tol,
                max_iters=MAX_LOCAL_ITER_FACTOR * max(n_loc, 1),
                flops_per_apply=2.0 * diag.nnz,
                jacobi_diag=diag_of_block,
            )
            construct_s = services.local_compute_s(stats.flops)
            stats_detail = {
                "local_iters": stats.iterations,
                "construct_relres": stats.relative_residual,
            }

        self._charge_construction(services, group, construct_s, parallel=False)
        state.x[sl] = x_i
        return construct_s, stats_detail


class LeastSquaresInterpolation(_InterpolationBase):
    """LSI: least-squares interpolation over the victim's columns."""

    def __init__(
        self,
        *,
        method: str = "cg",
        construct_tol: float = 1e-6,
        dvfs: bool = False,
    ) -> None:
        super().__init__(
            method=method,
            construct_tol=construct_tol,
            dvfs=dvfs,
            valid_methods=("cg", "qr"),
        )
        self.name = "LSI-DVFS" if dvfs else "LSI"

    def recover(
        self, services: RecoveryServices, state: CGState, event: FaultEvent
    ) -> RecoveryOutcome:
        groups = self._victim_groups(services, event)
        total_s = 0.0
        group_details = []
        for group in groups:
            construct_s, stats_detail = self._recover_group(
                services, state, group
            )
            total_s += construct_s
            group_details.append(stats_detail)
        detail = {
            "scheme": self.name,
            "method": self.method,
            "construct_s": total_s,
        }
        if len(groups) == 1:
            detail.update(group_details[0])
        else:
            detail["groups"] = [
                {"victims": g, **d} for g, d in zip(groups, group_details)
            ]
        return self._finish(services, detail)

    def _recover_group(
        self, services: RecoveryServices, state: CGState, group: "list[int]"
    ) -> "tuple[float, dict]":
        sl = self._union_slice(services, group)
        if len(group) == 1:
            rows = services.dmat.row_block(group[0])
        else:
            rows = sp.vstack(
                [services.dmat.row_block(v) for v in group], format="csr"
            )
        n = services.dmat.n
        n_loc = sl.stop - sl.start

        # beta = b - sum_{j not in U} A_{:,p_j} x_j: every rank computes
        # its block of A x with the group's entries zeroed.
        state.x[sl] = 0.0
        beta = services.b - services.dmat.matvec(state.x)

        # One distributed SpMV to form beta, then gather it to the group.
        services.charge_phase(
            PhaseTag.RECONSTRUCT,
            services.restart_cost_s(),
            services.power_compute_w(),
        )
        group_set = set(group)
        self._charge_rhs_comm(
            services, group[0], group_set, n * BYTES_PER_ENTRY
        )

        if self.method == "qr":
            # Exact parallel least squares (prior work's QR [2]): all
            # ranks participate; each LSQR round is two distributed
            # matvecs plus reductions.
            if len(group) == 1:
                col = services.dmat.col_block(group[0])
            else:
                col = sp.hstack(
                    [services.dmat.col_block(v) for v in group], format="csr"
                )
            x_i, stats = exact_least_squares(col, beta)
            per_round_flops = 4.0 * col.nnz / services.nranks
            per_round_s = services.local_compute_s(per_round_flops) + (
                2.0 * services.collective_allreduce_s(n_loc * BYTES_PER_ENTRY)
            )
            construct_s = stats.iterations * per_round_s
            self._charge_construction(services, group, construct_s, parallel=True)
            detail = {"lsqr_iters": stats.iterations}
        else:
            # Local normal equations (Eq. 21): operator v -> A_U (A_U^T v)
            # built solely from the group's own (recovered static) rows.
            rows_t = rows.T.tocsr()
            rows_mv, rows_t_mv = csr_matvec(rows), csr_matvec(rows_t)
            rhs = rows @ beta
            # Jacobi diagonal of A_U A_U^T = squared row norms: tames the
            # squared, badly-scaled conditioning of the normal equations.
            row_norms_sq = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
            row_norms_sq = np.maximum(row_norms_sq, 1e-300)
            x_i, stats = local_cg(
                lambda v: rows_mv(rows_t_mv(v)),
                rhs,
                tol=self.construct_tol,
                max_iters=MAX_LOCAL_ITER_FACTOR * max(n_loc, 1),
                flops_per_apply=4.0 * rows.nnz,
                jacobi_diag=row_norms_sq,
            )
            construct_s = services.local_compute_s(stats.flops)
            self._charge_construction(services, group, construct_s, parallel=False)
            detail = {
                "local_iters": stats.iterations,
                "construct_relres": stats.relative_residual,
            }

        state.x[sl] = x_i
        return construct_s, detail
