"""Checkpoint stores with time and power cost models.

The per-checkpoint cost ``t_C`` "differs with the checkpoint storage —
e.g. local-memory (cheap) or remote disk (expensive)" (Section 3.2), and
under weak scaling ``t_C`` of CR-D grows linearly with system size while
``t_C`` of CR-M stays stable (Section 6).  The two store models reproduce
those behaviours mechanically:

* :class:`MemoryStore` — every rank copies its block to local DRAM in
  parallel; time is set by the per-rank block size, so it is constant
  under weak scaling.
* :class:`DiskStore` — all ranks funnel through a shared parallel file
  system of fixed aggregate bandwidth; time is set by the *total* bytes,
  so it grows linearly with rank count under weak scaling.

Both stores also genuinely retain the snapshot bytes so rollback is an
exact restore, not a simulation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Snapshot:
    """An immutable saved solver state."""

    iteration: int
    x: np.ndarray

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        self.x.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return self.x.nbytes


class CheckpointStore(abc.ABC):
    """Retains snapshots and prices their I/O."""

    def __init__(self) -> None:
        self._snapshots: list[Snapshot] = []

    # -- data path -----------------------------------------------------
    def save(self, iteration: int, x: np.ndarray) -> Snapshot:
        snap = Snapshot(iteration, np.array(x, copy=True))
        self._snapshots.append(snap)
        return snap

    def latest(self) -> Snapshot | None:
        """Most recent snapshot, or None if nothing was saved yet."""
        return self._snapshots[-1] if self._snapshots else None

    def latest_before(self, iteration: int) -> Snapshot | None:
        """Most recent snapshot taken at or before ``iteration``."""
        candidates = [s for s in self._snapshots if s.iteration <= iteration]
        return candidates[-1] if candidates else None

    @property
    def count(self) -> int:
        return len(self._snapshots)

    # -- cost model ----------------------------------------------------
    @abc.abstractmethod
    def write_time_s(self, total_bytes: float, nranks: int) -> float:
        """Wall-clock seconds for all ranks to checkpoint ``total_bytes``."""

    @abc.abstractmethod
    def read_time_s(self, total_bytes: float, nranks: int) -> float:
        """Wall-clock seconds for the rollback read."""

    @staticmethod
    def _validate(total_bytes: float, nranks: int) -> None:
        if total_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if nranks < 1:
            raise ValueError("need at least one rank")


@dataclass
class _MemoryParams:
    #: Per-rank copy bandwidth into a DRAM checkpoint buffer.
    bandwidth_gbps: float = 8.0
    latency_s: float = 1e-6


class MemoryStore(CheckpointStore):
    """CR-M: in-memory checkpoints, parallel across ranks."""

    def __init__(self, params: _MemoryParams | None = None) -> None:
        super().__init__()
        self.params = params or _MemoryParams()
        if self.params.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")

    def write_time_s(self, total_bytes: float, nranks: int) -> float:
        self._validate(total_bytes, nranks)
        per_rank = total_bytes / nranks
        return self.params.latency_s + per_rank / (self.params.bandwidth_gbps * 1e9)

    def read_time_s(self, total_bytes: float, nranks: int) -> float:
        return self.write_time_s(total_bytes, nranks)


@dataclass
class _DiskParams:
    #: Aggregate bandwidth of the shared parallel file system.
    aggregate_bandwidth_gbps: float = 2.0
    latency_s: float = 2e-5
    #: Reads hit the PFS cache / dedicated read path slightly faster.
    read_speedup: float = 1.25


class DiskStore(CheckpointStore):
    """CR-D: checkpoints to a shared parallel file system.

    The PFS bandwidth is fixed and shared, so checkpoint time scales with
    the *total* volume — under weak scaling (constant bytes per rank)
    that is linear in the rank count, the behaviour Section 6 projects.
    The disk "is shared between multiple users and consumes a constant
    amount of power regardless of configuration" (Section 5.3), hence no
    disk power term.
    """

    def __init__(self, params: _DiskParams | None = None) -> None:
        super().__init__()
        self.params = params or _DiskParams()
        if self.params.aggregate_bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.params.read_speedup <= 0:
            raise ValueError("read speedup must be positive")

    def write_time_s(self, total_bytes: float, nranks: int) -> float:
        self._validate(total_bytes, nranks)
        return self.params.latency_s + total_bytes / (
            self.params.aggregate_bandwidth_gbps * 1e9
        )

    def read_time_s(self, total_bytes: float, nranks: int) -> float:
        self._validate(total_bytes, nranks)
        return self.params.latency_s + total_bytes / (
            self.params.aggregate_bandwidth_gbps * 1e9 * self.params.read_speedup
        )
