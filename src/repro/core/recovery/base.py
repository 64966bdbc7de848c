"""Recovery scheme interface.

A scheme plugs into the solver loop through three hooks:

* :meth:`RecoveryScheme.setup` — once, before the first iteration;
* :meth:`RecoveryScheme.on_iteration_end` — after every CG iteration
  (CR uses this to checkpoint; RD to refresh its replica);
* :meth:`RecoveryScheme.recover` — when a fault has damaged the state;
  the scheme rewrites the victim's block of x and reports whether the CG
  recurrence must be restarted from the true residual.

Schemes never touch the solver directly: they see a
:class:`RecoveryServices` facade that exposes the partitioned system and
the charging interface of the simulated cluster (time, power, DVFS).
That keeps every scheme unit-testable against a fake services object.
"""

from __future__ import annotations

import abc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.core.cg import CGState
from repro.faults.events import FaultEvent
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition
from repro.power.energy import PhaseTag


class RecoveryServices(Protocol):
    """What the solver exposes to recovery schemes."""

    @property
    def dmat(self) -> DistributedMatrix: ...

    @property
    def partition(self) -> BlockRowPartition: ...

    @property
    def b(self) -> np.ndarray: ...

    @property
    def x0(self) -> np.ndarray: ...

    @property
    def nranks(self) -> int: ...

    @property
    def iteration_wall_s(self) -> float:
        """Critical-path seconds of one CG iteration."""
        ...

    def charge_phase(self, tag: PhaseTag, duration_s: float, power_w: float) -> None:
        """Advance simulated wall-clock by ``duration_s`` at machine power
        ``power_w`` and book it under ``tag``."""
        ...

    def charge_overlapped(self, tag: PhaseTag, energy_j: float) -> None:
        """Book energy with no wall-clock advance (concurrent replica)."""
        ...

    # -- machine power operating points --------------------------------
    def power_compute_w(self) -> float: ...

    def power_checkpoint_w(self) -> float: ...

    def power_reconstruct_w(self, *, dvfs: bool) -> float: ...

    def power_idle_w(self) -> float: ...

    # -- cost helpers ---------------------------------------------------
    def local_compute_s(self, flops: float, *, kind: str = "spmv") -> float:
        """Seconds for one core at f_max to execute ``flops`` of ``kind``
        work ("spmv", "dense" or "factor")."""
        ...

    def collective_allreduce_s(self, nbytes: float) -> float: ...

    def p2p_s(self, src: int, dst: int, nbytes: float) -> float: ...

    def interconnect_p2p_s(self, nbytes: float) -> float:
        """One inter-node message of ``nbytes`` (replica transfers)."""
        ...

    def restart_cost_s(self) -> float:
        """Seconds of the post-recovery restart (one true-residual
        recomputation: SpMV + halo + reduction)."""
        ...

    def apply_dvfs_reconstruct(self, victims: "int | Sequence[int]") -> None:
        """Section-4.2 schedule: victim cores at f_max, all others f_min.

        Accepts a single rank or the full victim set of a concurrent
        failure event."""
        ...

    def release_dvfs(self) -> None:
        """Return every core to f_max after reconstruction."""
        ...

    # -- observability (optional; absent on minimal fakes) --------------
    def span(self, name: str, **attrs):
        """Context manager timing ``name`` on the solver's telemetry
        (simulated clock); a no-op context when tracing is off."""
        ...

    @property
    def metrics(self):
        """The solver's :class:`~repro.obs.metrics.MetricsRegistry`, or
        ``None`` when tracing is off."""
        ...


def obs_span(services, name: str, **attrs):
    """``services.span(...)`` if the services object provides one, else a
    null context — schemes stay runnable against minimal fakes."""
    span = getattr(services, "span", None)
    return span(name, **attrs) if span is not None else nullcontext()


def obs_metrics(services):
    """The services' metrics registry, or ``None``."""
    return getattr(services, "metrics", None)


@dataclass
class RecoveryOutcome:
    """What a recovery did, for the solver's bookkeeping."""

    needs_restart: bool
    construct_time_s: float = 0.0
    detail: dict | None = None


class RecoveryScheme(abc.ABC):
    """Base class for Table-2 recovery schemes."""

    #: Short name used in tables/figures ("RD", "CR-M", "LI", ...).
    name: str = "base"
    #: DMR runs a full replica: every phase costs double energy.
    energy_multiplier: float = 1.0
    #: Flat per-iteration overlapped energy (joules) the scheme spends
    #: alongside every CG iteration — e.g. ESR streaming its redundant
    #: p/r copies to neighbour ranks.  Charged as REDUNDANT with zero
    #: wall-clock, span-batched float-faithfully like energy_multiplier.
    overlap_energy_per_iteration_j: float = 0.0
    #: True for schemes whose single recover() repairs the whole state
    #: (checkpoint rollback); False for block-local recoveries, which
    #: the solver invokes once per damaged block on wide-scope faults.
    recovers_globally: bool = False
    #: True for schemes that repair a concurrent failure event in one
    #: recover() call over the full victim set (``event.victims``) —
    #: e.g. interpolation around a contiguous lost-block union, or ESR's
    #: multi-loss reconstruction.  False keeps the per-damaged-block
    #: invocation.  Ignored when recovers_globally is set.
    recovers_jointly: bool = False

    def setup(self, services: RecoveryServices) -> None:
        """Called once before the first iteration."""

    def on_iteration_end(
        self, services: RecoveryServices, state: CGState
    ) -> None:
        """Called after every completed CG iteration."""

    def next_hook_iteration(self, iteration: int) -> float | None:
        """Span cadence contract (DESIGN.md §5e).

        The solve loop batches fault-free iterations into spans and
        calls :meth:`on_iteration_end` once per span end instead of once
        per iteration.  This method tells it the earliest iteration
        (> ``iteration``) at which the hook has an effect that is *not*
        reproduced by a single span-end call; the span is never run past
        that iteration.  Return ``float("inf")`` when a span-end call
        always suffices (e.g. a pure state snapshot, where only the
        snapshot taken immediately before a fault is ever observable),
        or ``None`` — the conservative default — to demand a
        per-iteration cadence.
        """
        return None

    @abc.abstractmethod
    def recover(
        self, services: RecoveryServices, state: CGState, event: FaultEvent
    ) -> RecoveryOutcome:
        """Repair ``state`` after ``event`` damaged the victim's block.

        Implementations must leave every non-victim row of x untouched
        (checkpoint rollback, which legitimately rewrites all rows, is
        the exception) and must charge their time/energy through
        ``services``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
