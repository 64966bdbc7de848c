"""Phase-tagged energy accounting.

The paper separates the energy spent making problem progress
(``E_solve``) from the energy spent on resilience (``E_res``) and reports
their ratio (Figure 7b).  :class:`EnergyAccount` accumulates (time,
energy) per phase tag so every experiment can report that breakdown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


def repeat_add(base: float, inc: float, n: int) -> float:
    """``base`` after ``n`` repetitions of ``base += inc``.

    Floating-point addition is not associative, so ``base + n * inc`` is
    *not* the same value; the span-batched fast solve path uses this to
    replay per-iteration accumulation float-faithfully.  The loop is
    bookkeeping-only (no arrays), so even O(n) trivial adds are orders of
    magnitude cheaper than the per-iteration charging they replace.
    """
    for _ in range(n):
        base += inc
    return base


class PhaseTag(enum.Enum):
    """What the machine was doing during a charged interval."""

    #: Useful CG iterations that a fault-free run would also execute.
    SOLVE = "solve"
    #: Communication / synchronisation of those iterations.
    OVERHEAD = "overhead"
    #: Writing checkpoints (CR).
    CHECKPOINT = "checkpoint"
    #: Rolling back / re-reading a checkpoint (CR).
    RESTORE = "restore"
    #: Constructing an approximation of lost data (FW: LI/LSI).
    RECONSTRUCT = "reconstruct"
    #: Extra CG iterations caused by faults (re-computation after CR
    #: rollback, or convergence delay after FW).
    EXTRA = "extra"
    #: Redundant replica execution (RD/DMR).
    REDUNDANT = "redundant"

    @property
    def is_resilience(self) -> bool:
        """True for phases that only exist because of faults/resilience."""
        return self in _RESILIENCE_TAGS


_RESILIENCE_TAGS = {
    PhaseTag.CHECKPOINT,
    PhaseTag.RESTORE,
    PhaseTag.RECONSTRUCT,
    PhaseTag.EXTRA,
    PhaseTag.REDUNDANT,
}


@dataclass
class Charge:
    """Accumulated time and energy under one tag."""

    time_s: float = 0.0
    energy_j: float = 0.0


@dataclass
class EnergyAccount:
    """Running totals of time and energy per :class:`PhaseTag`.

    Overlapped phases (DMR's replica) charge energy with zero wall-clock
    time so total time remains the critical-path time while total energy
    includes everything that drew power.

    ``on_charge`` is an optional observability tap: when set, every
    charge also invokes ``on_charge(tag, time_s, energy_j)`` (with
    ``time_s=0`` for overlapped charges).  The solver uses it to feed
    phase metrics and phase-transition events without the account
    knowing about the telemetry layer.  It is excluded from equality
    and never pickled with the account.
    """

    charges: dict[PhaseTag, Charge] = field(default_factory=dict)
    on_charge: object = field(default=None, repr=False, compare=False)

    def charge(self, tag: PhaseTag, *, time_s: float, power_w: float) -> float:
        """Charge ``time_s`` seconds at ``power_w`` watts; returns joules."""
        if time_s < 0:
            raise ValueError("time must be non-negative")
        if power_w < 0:
            raise ValueError("power must be non-negative")
        energy = time_s * power_w
        c = self.charges.setdefault(tag, Charge())
        c.time_s += time_s
        c.energy_j += energy
        if self.on_charge is not None:
            self.on_charge(tag, time_s, energy)
        return energy

    def charge_span(
        self, tag: PhaseTag, *, time_s: float, power_w: float, n: int
    ) -> float:
        """Charge ``n`` identical ``(time_s, power_w)`` charges.

        Bit-identical to calling :meth:`charge` ``n`` times (the
        accumulator is replayed add-by-add, see :func:`repeat_add`), but
        without per-charge call overhead.  Returns the per-charge energy.

        Unlike :meth:`charge`, this does **not** invoke the ``on_charge``
        tap: span-batching callers replay their observability at span
        granularity themselves (the solver's span loop stamps phase
        metrics and transition events explicitly).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if time_s < 0:
            raise ValueError("time must be non-negative")
        if power_w < 0:
            raise ValueError("power must be non-negative")
        energy = time_s * power_w
        if n == 0:
            return energy
        c = self.charges.setdefault(tag, Charge())
        c.time_s = repeat_add(c.time_s, time_s, n)
        c.energy_j = repeat_add(c.energy_j, energy, n)
        return energy

    def charge_energy_span(self, tag: PhaseTag, energy_j: float, n: int) -> None:
        """``n`` identical overlapped charges; bit-identical to calling
        :meth:`charge_energy` ``n`` times.  Skips the ``on_charge`` tap,
        like :meth:`charge_span`."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if energy_j < 0:
            raise ValueError("energy must be non-negative")
        if n == 0:
            return
        c = self.charges.setdefault(tag, Charge())
        c.energy_j = repeat_add(c.energy_j, energy_j, n)

    def charge_energy(self, tag: PhaseTag, energy_j: float) -> None:
        """Charge energy with no wall-clock time (overlapped phases)."""
        if energy_j < 0:
            raise ValueError("energy must be non-negative")
        self.charges.setdefault(tag, Charge()).energy_j += energy_j
        if self.on_charge is not None:
            self.on_charge(tag, 0.0, energy_j)

    # The tap may close over a live solver; it must not travel with the
    # account when reports cross process boundaries as pickles.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["on_charge"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def time(self, tag: PhaseTag) -> float:
        return self.charges.get(tag, Charge()).time_s

    def energy(self, tag: PhaseTag) -> float:
        return self.charges.get(tag, Charge()).energy_j

    @property
    def total_time_s(self) -> float:
        return sum(c.time_s for c in self.charges.values())

    @property
    def total_energy_j(self) -> float:
        return sum(c.energy_j for c in self.charges.values())

    @property
    def solve_time_s(self) -> float:
        """Time a fault-free execution would also spend."""
        return self.time(PhaseTag.SOLVE) + self.time(PhaseTag.OVERHEAD)

    @property
    def solve_energy_j(self) -> float:
        return self.energy(PhaseTag.SOLVE) + self.energy(PhaseTag.OVERHEAD)

    @property
    def resilience_time_s(self) -> float:
        """T_res: total time overhead attributable to resilience."""
        return sum(c.time_s for t, c in self.charges.items() if t.is_resilience)

    @property
    def resilience_energy_j(self) -> float:
        """E_res: total energy overhead attributable to resilience."""
        return sum(c.energy_j for t, c in self.charges.items() if t.is_resilience)

    @property
    def average_power_w(self) -> float:
        """Energy / wall-clock time, the paper's whole-run average power."""
        t = self.total_time_s
        return self.total_energy_j / t if t > 0 else 0.0

    def resilience_ratio(self) -> float:
        """E_res / E_solve, as plotted in Figure 7(b)."""
        solve = self.solve_energy_j
        return self.resilience_energy_j / solve if solve > 0 else 0.0

    def merged_with(self, other: "EnergyAccount") -> "EnergyAccount":
        out = EnergyAccount()
        for src in (self, other):
            for tag, c in src.charges.items():
                dst = out.charges.setdefault(tag, Charge())
                dst.time_s += c.time_s
                dst.energy_j += c.energy_j
        return out
