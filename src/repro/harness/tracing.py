"""Structured event tracing for resilient solves.

When :class:`~repro.core.solver.SolverConfig` is built with
``trace=True`` the solver records a typed, ordered event stream —
faults, recoveries, checkpoints, restarts — alongside the aggregate
report.  The stream is what post-hoc analysis needs (e.g. "how long
after each fault did the residual re-cross its pre-fault level?") and
what the aggregate phase accounts deliberately compress away.

Events are plain frozen dataclasses; :func:`repro.obs.export.event_to_row`
flattens one for tabular tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """Base event: when it happened, in iterations and simulated time."""

    iteration: int
    sim_time_s: float

    kind = "event"


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """A fault damaged the dynamic state."""

    victim_rank: int = 0
    fault_class: str = "SNF"
    scope: str = "process"
    n_blocks_lost: int = 1

    kind = "fault"


@dataclass(frozen=True)
class RecoveryApplied(TraceEvent):
    """A scheme repaired (part of) the state."""

    scheme: str = ""
    victim_rank: int = 0
    needs_restart: bool = True
    construct_time_s: float = 0.0

    kind = "recovery"


@dataclass(frozen=True)
class CheckpointWritten(TraceEvent):
    """A checkpoint was committed."""

    duration_s: float = 0.0

    kind = "checkpoint"


@dataclass(frozen=True)
class SolverRestarted(TraceEvent):
    """The CG recurrence was re-anchored on the true residual."""

    kind = "restart"


@dataclass(frozen=True)
class PhaseEntered(TraceEvent):
    """Simulated time crossed into a resilience phase.

    Emitted on the *transition* (the previous time-advancing charge had
    a different tag), not per charge, so contiguous runs of the same
    phase — e.g. a block of EXTRA iterations — yield one event.
    """

    phase: str = ""
    from_phase: str = ""

    kind = "phase"


#: Record slack: events at the *same* simulated instant are legal and
#: common — a fault and its zero-cost recovery, or several block-local
#: recoveries inside one wide-scope fault, all land on one timestamp.
#: The slack also forgives float jitter from summing phase durations in
#: different orders; only a genuinely earlier timestamp (beyond 1e-12 s)
#: is time travel and rejected.
EQUAL_TIME_SLACK_S = 1e-12


@dataclass
class EventLog:
    """Append-only, time-ordered event stream."""

    events: list[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Per-kind index so of_kind() costs O(matches), not a full scan.
        self._by_kind: dict[str, list[TraceEvent]] = {}
        for e in self.events:
            self._by_kind.setdefault(e.kind, []).append(e)

    def record(self, event: TraceEvent) -> None:
        if (
            self.events
            and event.sim_time_s < self.events[-1].sim_time_s - EQUAL_TIME_SLACK_S
        ):
            raise ValueError("events must be recorded in time order")
        self.events.append(event)
        self._by_kind.setdefault(event.kind, []).append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Events of one kind, via the per-kind index (no full scan).
        Returns a fresh list; mutating it does not affect the log."""
        return list(self._by_kind.get(kind, ()))

    @property
    def faults(self) -> list[FaultInjected]:
        return self.of_kind("fault")  # type: ignore[return-value]

    @property
    def recoveries(self) -> list[RecoveryApplied]:
        return self.of_kind("recovery")  # type: ignore[return-value]

    @property
    def checkpoints(self) -> list[CheckpointWritten]:
        return self.of_kind("checkpoint")  # type: ignore[return-value]

    @property
    def restarts(self) -> list[SolverRestarted]:
        return self.of_kind("restart")  # type: ignore[return-value]

    def recovery_latency_s(self) -> list[float]:
        """Simulated seconds from each fault to its (first) recovery."""
        latencies = []
        recoveries = iter(self.recoveries)
        pending: RecoveryApplied | None = next(recoveries, None)
        for fault in self.faults:
            while pending is not None and pending.sim_time_s < fault.sim_time_s:
                pending = next(recoveries, None)
            if pending is not None:
                latencies.append(pending.sim_time_s - fault.sim_time_s)
                pending = next(recoveries, None)
        return latencies

    def __len__(self) -> int:
        return len(self.events)
