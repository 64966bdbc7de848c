"""Simulated time: per-rank clocks and phase logging.

The solver executes in BSP super-steps.  Each rank owns a clock that
advances by its local compute time; collectives synchronise the clocks to
their common completion time (the straggler's arrival plus the collective
cost).  Phase logs record what the machine was doing over which simulated
interval and at what power, which is exactly what the simulated-RAPL power
traces (Figure 7a) and the phase-tagged energy accounts are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ClockArray:
    """Per-rank simulated clocks (seconds), vectorised over ranks."""

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        self._t = np.zeros(nranks, dtype=np.float64)

    @property
    def nranks(self) -> int:
        return self._t.size

    @property
    def times(self) -> np.ndarray:
        """Read-only view of the per-rank clocks."""
        v = self._t.view()
        v.flags.writeable = False
        return v

    @property
    def now(self) -> float:
        """Global time: the furthest-ahead rank."""
        return float(self._t.max())

    @property
    def min(self) -> float:
        return float(self._t.min())

    def advance(self, durations) -> None:
        """Advance every rank by its own duration (scalar broadcasts)."""
        d = np.asarray(durations, dtype=np.float64)
        if np.any(d < 0):
            raise ValueError("durations must be non-negative")
        self._t += d

    def advance_rank(self, rank: int, duration: float) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._t[rank] += duration

    def synchronize(self, extra: float = 0.0) -> float:
        """Barrier semantics: set all clocks to ``max + extra``; return it."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        t = self.now + extra
        self._t[:] = t
        return t

    def jump_to(self, t: float) -> float:
        """Set every clock to the absolute time ``t`` (barrier semantics,
        like :meth:`synchronize`, but with a precomputed target).  Used by
        span-batched execution, which replays a span's clock advance as a
        scalar accumulation and lands all ranks on the result."""
        if t < self.now:
            raise ValueError("clocks cannot move backwards")
        self._t[:] = t
        return t

    def copy(self) -> "ClockArray":
        c = ClockArray(self.nranks)
        c._t[:] = self._t
        return c


@dataclass(frozen=True)
class Phase:
    """One homogeneous interval of machine activity.

    ``tag`` names what was happening (``"compute"``, ``"comm"``,
    ``"checkpoint"``, ``"reconstruct"``, ...); ``power_w`` is the total
    machine power over the interval.
    """

    tag: str
    t_start: float
    t_end: float
    power_w: float

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError("phase must not end before it starts")
        if self.power_w < 0:
            raise ValueError("power must be non-negative")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def energy_j(self) -> float:
        return self.duration * self.power_w


@dataclass
class PhaseLog:
    """Append-only log of :class:`Phase` records."""

    phases: list[Phase] = field(default_factory=list)

    def add(self, tag: str, t_start: float, t_end: float, power_w: float) -> Phase:
        ph = Phase(tag, t_start, t_end, power_w)
        self.phases.append(ph)
        return ph

    def total_energy(self, tag: str | None = None) -> float:
        """Total energy, optionally restricted to one tag."""
        return sum(p.energy_j for p in self.phases if tag is None or p.tag == tag)

    def tags(self) -> set[str]:
        return {p.tag for p in self.phases}

    def trace(self, dt: float, t_end: float | None = None):
        """Sample the log into a (times, watts) power trace with step ``dt``.

        Overlapping phases add their power (e.g. the redundant replica in
        DMR runs concurrently with the primary).  Returns two numpy arrays.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not self.phases and t_end is None:
            return np.array([]), np.array([])
        horizon = t_end if t_end is not None else max(p.t_end for p in self.phases)
        n = max(1, int(np.ceil(horizon / dt)))
        times = (np.arange(n) + 0.5) * dt
        watts = np.zeros(n)
        for p in self.phases:
            mask = (times >= p.t_start) & (times < p.t_end)
            watts[mask] += p.power_w
        return times, watts

    def __len__(self) -> int:
        return len(self.phases)
