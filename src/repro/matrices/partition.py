"""Block-row partitioning (Figure 2a).

The matrix A, the iterate x and the right-hand side b are partitioned to
``p`` processes in contiguous row blocks: process ``p_i`` owns rows
``[start_i, stop_i)`` of A and the matching entries of x and b.  Blocks
are as equal as possible (the first ``n % p`` blocks get one extra row),
which is the standard PETSc/RAPtor layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BlockRowPartition:
    """Contiguous near-equal row blocks of an ``n``-row system over
    ``nranks`` processes."""

    n: int
    nranks: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix must have at least one row")
        if self.nranks < 1:
            raise ValueError("need at least one rank")
        if self.nranks > self.n:
            # An empty partition is never valid: a rank owning zero rows
            # has no diagonal block to recover and a zero-flop SpMV the
            # cost model cannot price, so fail loudly at construction
            # instead of letting downstream code skip the empty blocks.
            raise ValueError(
                f"cannot split {self.n} rows over {self.nranks} ranks: "
                f"{self.nranks - self.n} ranks would own empty partitions; "
                f"use nranks <= {self.n} or a larger matrix"
            )

    # ------------------------------------------------------------------
    def start_of(self, rank: int) -> int:
        self._check(rank)
        base, extra = divmod(self.n, self.nranks)
        return rank * base + min(rank, extra)

    def stop_of(self, rank: int) -> int:
        self._check(rank)
        return self.start_of(rank) + self.size_of(rank)

    def size_of(self, rank: int) -> int:
        self._check(rank)
        base, extra = divmod(self.n, self.nranks)
        return base + (1 if rank < extra else 0)

    def slice_of(self, rank: int) -> slice:
        return slice(self.start_of(rank), self.stop_of(rank))

    # ------------------------------------------------------------------
    def owner_of(self, row: int) -> int:
        """The rank owning global row ``row``."""
        if not 0 <= row < self.n:
            raise IndexError(f"row {row} out of range [0, {self.n})")
        base, extra = divmod(self.n, self.nranks)
        boundary = extra * (base + 1)
        if row < boundary:
            return row // (base + 1)
        return extra + (row - boundary) // base

    def owners_of(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner_of`."""
        rows = np.asarray(rows)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise IndexError("row index out of range")
        base, extra = divmod(self.n, self.nranks)
        boundary = extra * (base + 1)
        low = rows // (base + 1)
        high = extra + (rows - boundary) // max(base, 1)
        return np.where(rows < boundary, low, high).astype(np.int64)

    # ------------------------------------------------------------------
    # The arrays are derived from two immutable ints, so they are cached
    # per instance (``cached_property`` writes the instance ``__dict__``
    # directly, which frozen dataclasses permit).  They are handed out
    # read-only so the cache cannot be corrupted through a view.
    @cached_property
    def starts(self) -> np.ndarray:
        base, extra = divmod(self.n, self.nranks)
        ranks = np.arange(self.nranks)
        out = ranks * base + np.minimum(ranks, extra)
        out.flags.writeable = False
        return out

    @cached_property
    def sizes(self) -> np.ndarray:
        base, extra = divmod(self.n, self.nranks)
        out = base + (np.arange(self.nranks) < extra).astype(np.int64)
        out.flags.writeable = False
        return out

    @property
    def max_block(self) -> int:
        return int(self.sizes.max())

    def __iter__(self):
        return (self.slice_of(r) for r in range(self.nranks))

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
