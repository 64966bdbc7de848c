"""Fault taxonomy (paper Section 2.1).

Soft faults cause erroneous deviation without interruption; hard faults
crash a process, node or system.  The paper studies recovery for faults
that are *detected* and *confined* to a subset of data structures [10]:
the victim process's partition of the dynamic data x is erroneous or lost
while the static data A and b can be restored from persistent storage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ProcessBinding


class FaultKind(enum.Enum):
    """Soft vs hard."""

    SOFT = "soft"
    HARD = "hard"


class FaultClass(enum.Enum):
    """The six fault classes the paper enumerates."""

    #: Detected and Corrected Error (e.g. single-bit ECC correction).
    DCE = ("DCE", FaultKind.SOFT)
    #: Detected but Uncorrected Error (e.g. multi-bit ECC detection).
    DUE = ("DUE", FaultKind.SOFT)
    #: Silent Data Corruption.
    SDC = ("SDC", FaultKind.SOFT)
    #: System-Wide Outage.
    SWO = ("SWO", FaultKind.HARD)
    #: Single Node Failure.
    SNF = ("SNF", FaultKind.HARD)
    #: Link and Node Failure.
    LNF = ("LNF", FaultKind.HARD)

    def __init__(self, label: str, kind: FaultKind) -> None:
        self.label = label
        self.kind = kind

    @property
    def is_soft(self) -> bool:
        return self.kind is FaultKind.SOFT

    @property
    def is_hard(self) -> bool:
        return self.kind is FaultKind.HARD

    @property
    def needs_recovery(self) -> bool:
        """DCE is corrected by hardware; everything else loses data."""
        return self is not FaultClass.DCE


class FaultScope(enum.Enum):
    """Blast radius of one fault.

    The paper's experiments confine every fault to a single process's
    data (Figure 2b), which is ``PROCESS``.  The taxonomy's hard-fault
    classes suggest wider radii — a single node failure (SNF) takes all
    ranks bound to that node with it, a system-wide outage (SWO) takes
    everything — provided as the ``NODE`` and ``SYSTEM`` extension
    scopes (see the node-failure ablation benchmark).
    """

    PROCESS = "process"
    NODE = "node"
    SYSTEM = "system"


@dataclass(frozen=True)
class FaultEvent:
    """One fault striking at one iteration.

    ``iteration`` is the CG iteration during which the fault strikes
    (the paper schedules faults by iteration index); ``victim_rank`` is
    the process whose partition of x is lost or corrupted — for wider
    scopes, the anchor rank from which the blast radius is expanded
    (its node, or the whole system).

    ``victims`` is the full set of ranks struck *simultaneously* by this
    one event (concurrent failures in the sense of Pachajoa et al.,
    arXiv:1907.13077).  The single-victim case is the degenerate default:
    when ``victims`` is left empty it is normalised to
    ``(victim_rank,)``, so every pre-existing construction site, equality
    comparison and serialized payload keeps its exact meaning.  When
    given explicitly, ``victims`` is de-duplicated preserving order and
    must contain ``victim_rank`` (the anchor).  ``scope`` expands each
    victim independently (a NODE-scope event with two victims loses both
    victims' nodes).
    """

    iteration: int
    victim_rank: int
    fault_class: FaultClass = FaultClass.SNF
    scope: FaultScope = FaultScope.PROCESS
    victims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        if self.victim_rank < 0:
            raise ValueError("victim rank must be non-negative")
        if not self.victims:
            object.__setattr__(self, "victims", (self.victim_rank,))
            return
        victims = tuple(dict.fromkeys(int(v) for v in self.victims))
        if any(v < 0 for v in victims):
            raise ValueError("victim rank must be non-negative")
        if self.victim_rank not in victims:
            raise ValueError(
                f"victim_rank {self.victim_rank} must be a member of "
                f"victims {victims}"
            )
        object.__setattr__(self, "victims", victims)

    @classmethod
    def multi(
        cls,
        iteration: int,
        victims: "tuple[int, ...] | list[int]",
        fault_class: FaultClass = FaultClass.SNF,
        scope: FaultScope = FaultScope.PROCESS,
    ) -> "FaultEvent":
        """Event striking every rank in ``victims`` at once; the first
        entry is the anchor ``victim_rank``."""
        victims = tuple(int(v) for v in victims)
        if not victims:
            raise ValueError("need at least one victim")
        return cls(iteration, victims[0], fault_class, scope, victims=victims)


def blast_radius(event: FaultEvent, binding: "ProcessBinding") -> list[int]:
    """The ranks ``event`` destroys on ``binding``'s rank placement.

    Every rank in ``event.victims`` is expanded by the event's scope
    independently, and the union keeps first-appearance order.  Both
    engines call this, so the analytic engine prices the very victim
    sets the solver damages.
    """
    nranks = binding.nranks
    for v in event.victims:
        if v >= nranks:
            raise ValueError(f"victim rank {v} outside [0, {nranks})")
    if event.scope is FaultScope.PROCESS:
        return list(event.victims)
    if event.scope is FaultScope.SYSTEM:
        return list(range(nranks))
    out: list[int] = []
    seen: set[int] = set()
    for v in event.victims:  # NODE
        for r in binding.ranks_on_node(binding.node_of(v)):
            if r not in seen:
                seen.add(r)
                out.append(r)
    return out
