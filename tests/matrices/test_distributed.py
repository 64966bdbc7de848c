"""Unit tests for the distributed matrix view."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.distributed import BYTES_PER_ENTRY, DistributedMatrix
from repro.matrices.generators import banded_spd
from repro.matrices.partition import BlockRowPartition


@pytest.fixture()
def dmat(small_banded) -> DistributedMatrix:
    n = small_banded.shape[0]
    return DistributedMatrix(small_banded, BlockRowPartition(n, 4))


class TestBlocks:
    def test_row_blocks_tile_the_matrix(self, dmat, small_banded):
        stacked = sp.vstack([dmat.row_block(r) for r in range(4)]).tocsr()
        assert (stacked != small_banded.tocsr()).nnz == 0

    def test_diag_block_is_square_principal_submatrix(self, dmat, small_banded):
        sl = dmat.partition.slice_of(1)
        diag = dmat.diag_block(1)
        assert diag.shape == (sl.stop - sl.start, sl.stop - sl.start)
        assert (diag != small_banded[sl, sl]).nnz == 0

    def test_col_block_is_row_block_transpose_for_spd(self, dmat):
        col = dmat.col_block(2)
        rows_t = dmat.row_block(2).T.tocsr()
        assert (abs(col - rows_t) > 1e-12).nnz == 0

    def test_blocks_are_cached(self, dmat):
        assert dmat.blocks(0) is dmat.blocks(0)

    def test_matvec_matches_global(self, dmat, small_banded, rng):
        x = rng.standard_normal(small_banded.shape[0])
        assert np.allclose(dmat.matvec(x), small_banded @ x)


class TestHaloStructure:
    def test_banded_halo_is_neighbour_only(self):
        """A narrow band partitioned into fat blocks only talks to
        adjacent ranks."""
        a = banded_spd(400, 5, dominance=0.1, seed=0)
        d = DistributedMatrix(a, BlockRowPartition(400, 4))
        for (src, dst) in d.halo_pair_bytes:
            assert abs(src - dst) == 1

    def test_halo_counts_match_structure(self):
        a = banded_spd(100, 3, dominance=0.1, seed=0)  # tridiagonal band
        d = DistributedMatrix(a, BlockRowPartition(100, 4))
        # each interior rank needs exactly 1 entry from each neighbour
        assert d.halo_pair_bytes[(0, 1)] == BYTES_PER_ENTRY
        assert d.halo_pair_bytes[(1, 0)] == BYTES_PER_ENTRY

    def test_halo_total(self, dmat):
        assert dmat.halo_bytes_total == pytest.approx(
            sum(dmat.halo_pair_bytes.values())
        )

    def test_single_rank_has_no_halo(self, small_banded):
        d = DistributedMatrix(small_banded, BlockRowPartition(96, 1))
        assert d.halo_pair_bytes == {}


class TestCostInputs:
    def test_local_nnz_sums_to_total(self, dmat, small_banded):
        assert dmat.local_nnz.sum() == small_banded.nnz

    def test_spmv_flops(self, dmat):
        assert np.array_equal(dmat.spmv_flops, 2 * dmat.local_nnz)


class TestValidation:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            DistributedMatrix(sp.random(4, 6, format="csr"), BlockRowPartition(4, 2))

    def test_rejects_partition_mismatch(self, small_banded):
        with pytest.raises(ValueError):
            DistributedMatrix(small_banded, BlockRowPartition(97, 4))
