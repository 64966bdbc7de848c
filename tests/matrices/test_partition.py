"""Unit tests for block-row partitioning."""

import numpy as np
import pytest

from repro.matrices.partition import BlockRowPartition


class TestBasicLayout:
    def test_even_split(self):
        p = BlockRowPartition(100, 4)
        assert [p.size_of(r) for r in range(4)] == [25, 25, 25, 25]
        assert [p.start_of(r) for r in range(4)] == [0, 25, 50, 75]

    def test_uneven_split_front_loads_extras(self):
        p = BlockRowPartition(10, 3)
        assert [p.size_of(r) for r in range(3)] == [4, 3, 3]
        assert [p.start_of(r) for r in range(3)] == [0, 4, 7]

    def test_blocks_cover_everything_exactly(self):
        p = BlockRowPartition(103, 7)
        covered = []
        for sl in p:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(103))

    def test_single_rank(self):
        p = BlockRowPartition(10, 1)
        assert p.slice_of(0) == slice(0, 10)

    def test_nranks_equals_n(self):
        p = BlockRowPartition(5, 5)
        assert all(p.size_of(r) == 1 for r in range(5))

    def test_more_ranks_than_rows_rejected(self):
        # empty partitions are never valid (no diagonal block to
        # recover, zero-flop SpMV the cost model cannot price), so the
        # tiny-n edge fails loudly at construction
        with pytest.raises(ValueError, match="empty partitions"):
            BlockRowPartition(5, 6)

    def test_more_ranks_than_rows_message_counts_the_gap(self):
        with pytest.raises(ValueError, match=r"3 ranks would own empty"):
            BlockRowPartition(13, 16)
        with pytest.raises(ValueError, match=r"use nranks <= 13"):
            BlockRowPartition(13, 16)


class TestOwnership:
    def test_owner_of_is_inverse_of_ranges(self):
        p = BlockRowPartition(53, 6)
        for r in range(6):
            for row in range(p.start_of(r), p.stop_of(r)):
                assert p.owner_of(row) == r

    def test_owners_of_vectorised_matches_scalar(self):
        p = BlockRowPartition(97, 5)
        rows = np.arange(97)
        owners = p.owners_of(rows)
        assert [p.owner_of(int(i)) for i in rows] == owners.tolist()

    def test_owner_out_of_range(self):
        p = BlockRowPartition(10, 2)
        with pytest.raises(IndexError):
            p.owner_of(10)
        with pytest.raises(IndexError):
            p.owners_of(np.array([0, 10]))


class TestArrays:
    def test_starts_and_sizes_consistent(self):
        p = BlockRowPartition(77, 9)
        starts, sizes = p.starts, p.sizes
        assert starts[0] == 0
        assert np.array_equal(starts[1:], (starts + sizes)[:-1])
        assert sizes.sum() == 77

    def test_max_block(self):
        assert BlockRowPartition(10, 3).max_block == 4


class TestValidation:
    def test_rejects_more_ranks_than_rows(self):
        with pytest.raises(ValueError):
            BlockRowPartition(3, 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            BlockRowPartition(0, 1)
        with pytest.raises(ValueError):
            BlockRowPartition(5, 0)

    def test_rank_bounds(self):
        p = BlockRowPartition(10, 2)
        with pytest.raises(IndexError):
            p.slice_of(2)
