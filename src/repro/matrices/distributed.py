"""Distributed view of a block-row partitioned sparse matrix.

Exposes exactly the per-rank pieces the solver and the recovery schemes
operate on (Figure 2, Equations 17-21):

* ``row_block(i)``   — A_{p_i,:}, the rows owned by rank i;
* ``diag_block(i)``  — A_{p_i,p_i}, the local square block LI solves with;
* halo structure     — which remote x entries each rank's SpMV needs,
  giving the per-iteration communication volumes of the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.matrices.partition import BlockRowPartition

#: Bytes per vector entry exchanged (float64).
BYTES_PER_ENTRY = 8


@dataclass(frozen=True)
class RankBlocks:
    """Cached per-rank matrix pieces."""

    rows: sp.csr_matrix          # A_{p_i,:}
    diag: sp.csr_matrix          # A_{p_i,p_i}
    halo_recv_counts: dict[int, int]  # owner rank -> #entries of x needed


@dataclass(frozen=True)
class PackedBlock:
    """A rank's row block with its columns compressed for local SpMV.

    ``mat`` is ``A_{p_i,:}`` restricted to the columns it actually
    touches; ``cols`` maps the packed column index back to the global
    one.  ``x[cols]`` is exactly the rank's halo gather (owned entries
    plus remote halo entries, in global order), so ``mat @ x[cols]``
    is the rank's local SpMV — and because packing preserves each
    row's nonzero storage order, it is *bit-identical* to the global
    SpMV restricted to the rank's rows (the ``loop`` backend's
    equivalence argument, DESIGN.md §5j).
    """

    mat: sp.csr_matrix   # A_{p_i, cols}
    cols: np.ndarray     # global column indices, sorted


class DistributedMatrix:
    """A global CSR matrix plus its block-row distribution."""

    def __init__(self, a: sp.spmatrix, partition: BlockRowPartition) -> None:
        a = sp.csr_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.shape[0] != partition.n:
            raise ValueError(
                f"partition over n={partition.n} does not match matrix of "
                f"order {a.shape[0]}"
            )
        a.sort_indices()
        self.a = a
        self.partition = partition
        self._blocks: dict[int, RankBlocks] = {}
        self._packed: dict[int, PackedBlock] = {}

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def nranks(self) -> int:
        return self.partition.nranks

    @property
    def nnz(self) -> int:
        return self.a.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Global SpMV (the numerics; costs are charged separately)."""
        return self.a @ x

    @cached_property
    def spmv(self):
        """``(kernel, operands)`` of the CG span loop's SpMV: after
        ``q.fill(0.0)``, ``kernel(*operands, p, q)`` writes ``a @ p``
        into ``q``.  The kernel is picked once from the matrix's
        structure (``core.backends.spmv_kernel``: DIA when every
        occupied diagonal is full, CSR otherwise) and built on first
        use, not in :meth:`warm`."""
        from repro.core.backends import spmv_kernel  # on use: core imports this module

        return spmv_kernel(self.a)

    # ------------------------------------------------------------------
    def blocks(self, rank: int) -> RankBlocks:
        """Per-rank blocks, computed once and cached."""
        if rank not in self._blocks:
            sl = self.partition.slice_of(rank)
            rows = self.a[sl, :].tocsr()
            diag = rows[:, sl].tocsr()
            cols = np.unique(rows.indices)
            external = cols[(cols < sl.start) | (cols >= sl.stop)]
            owners = self.partition.owners_of(external) if external.size else np.array([], dtype=np.int64)
            # owners is non-decreasing (external is sorted and ownership
            # is monotone in the column index), so the unique owners come
            # out in the same order the per-element loop inserted them.
            uniq, cnts = np.unique(owners, return_counts=True)
            counts = {int(o): int(c) for o, c in zip(uniq, cnts)}
            self._blocks[rank] = RankBlocks(rows, diag, counts)
        return self._blocks[rank]

    def warm(self) -> "DistributedMatrix":
        """Eagerly compute every rank's blocks and the halo volumes.

        The problem cache (:mod:`repro.matrices.cache`) calls this so a
        shared instance is fully analysed once instead of lazily inside
        the first solve that touches each rank."""
        for rank in range(self.nranks):
            self.blocks(rank)
        _ = self.local_nnz, self.spmv_flops
        _ = self.halo_pair_bytes, self.halo_bytes_total
        return self

    def packed_block(self, rank: int) -> PackedBlock:
        """Column-compressed ``A_{p_i,:}`` for the ``loop`` backend.

        Computed lazily and cached per rank.  Deliberately *not* part of
        :meth:`warm`: only the ``loop`` backend reads it, so the default
        setup path pays nothing for it.
        """
        if rank not in self._packed:
            rows = self.blocks(rank).rows
            cols = np.unique(rows.indices)
            # searchsorted over the sorted unique columns is monotone,
            # so per-row nonzero order survives the renumbering.
            local = np.searchsorted(cols, rows.indices).astype(
                rows.indices.dtype
            )
            mat = sp.csr_matrix(
                (rows.data, local, rows.indptr),
                shape=(rows.shape[0], int(cols.size)),
            )
            self._packed[rank] = PackedBlock(mat=mat, cols=cols)
        return self._packed[rank]

    def row_block(self, rank: int) -> sp.csr_matrix:
        """A_{p_i,:} — all columns of the rows owned by ``rank``."""
        return self.blocks(rank).rows

    def diag_block(self, rank: int) -> sp.csr_matrix:
        """A_{p_i,p_i} — the square diagonal block of ``rank``."""
        return self.blocks(rank).diag

    def col_block(self, rank: int) -> sp.csr_matrix:
        """A_{:,p_i}.  For the SPD matrices under study this equals
        ``row_block(rank).T`` (used by LSI, Equation 21)."""
        return self.row_block(rank).T.tocsr()

    # ------------------------------------------------------------------
    # cost-model inputs
    # ------------------------------------------------------------------
    @cached_property
    def local_nnz(self) -> np.ndarray:
        """Nonzeros per rank (drives per-rank SpMV flops)."""
        indptr = self.a.indptr
        starts = self.partition.starts
        stops = starts + self.partition.sizes
        return (indptr[stops] - indptr[starts]).astype(np.int64)

    @cached_property
    def spmv_flops(self) -> np.ndarray:
        """Per-rank flops of one SpMV: 2 * local nnz."""
        return 2 * self.local_nnz

    @cached_property
    def halo_pair_bytes(self) -> dict[tuple[int, int], float]:
        """Directed halo volumes ``(src, dst) -> bytes`` for one SpMV.

        ``dst`` needs ``count`` entries of x owned by ``src`` to multiply
        its off-diagonal columns.
        """
        out: dict[tuple[int, int], float] = {}
        for rank in range(self.nranks):
            for owner, count in self.blocks(rank).halo_recv_counts.items():
                out[(owner, rank)] = count * BYTES_PER_ENTRY
        return out

    @cached_property
    def halo_bytes_total(self) -> float:
        return sum(self.halo_pair_bytes.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DistributedMatrix(n={self.n}, nnz={self.nnz}, "
            f"nranks={self.nranks})"
        )
