"""The fault-free CG trajectory, walked once per experiment.

Every scheme solve of an experiment starts from the same CG state and
walks the fault-free iterations until something perturbs it: RD and ESR
repair a fault to the exact pre-fault state and stay on that trajectory
to convergence; every other scheme leaves it at its first fault.  A
:class:`TrajectoryMemo` lets those solves share the walk.  The first
on-trajectory solve to run a span ``(iteration, length)`` records the
span's end state and residuals; a later solve asking for the same span
from the same state installs them instead of iterating.

A solve is *on trajectory* while its CG state is bitwise the recorded
state at that iteration.  :meth:`TrajectoryMemo.start` proves it for the
initial state, :meth:`Span.matches` re-proves it before every span, so
whatever ran in between (a scheme hook, a fault and its recovery, a
restart) is covered by one comparison.  A breakdown is never recorded:
the solve steps off the trajectory there.

The memo lives as long as the :class:`~repro.harness.experiment.
Experiment` that owns it and is handed to each solve as an argument;
nothing in a :class:`~repro.core.report.SolveReport` references it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cg import CGState, DistributedCG


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality (``-0.0`` and ``0.0`` differ; so would a
    NaN payload) — stricter than ``np.array_equal`` on floats."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@dataclass(frozen=True)
class Span:
    """The trajectory's CG state after a span, and the span's residuals."""

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rz: float
    iteration: int
    #: The residual-history values the span appended (float64).
    history: np.ndarray

    @classmethod
    def snapshot(cls, state: CGState, history: np.ndarray) -> "Span":
        return cls(
            state.x.copy(),
            state.r.copy(),
            state.p.copy(),
            state.rz,
            state.iteration,
            history,
        )

    @property
    def taken(self) -> int:
        return len(self.history)

    def matches(self, state: CGState) -> bool:
        """Whether ``state`` is bitwise this span's end state."""
        return (
            state.iteration == self.iteration
            and float(state.rz).hex() == float(self.rz).hex()
            and _same_bits(state.x, self.x)
            and _same_bits(state.r, self.r)
            and _same_bits(state.p, self.p)
        )

    def install(self, cg: DistributedCG) -> None:
        """Advance ``cg`` to the span's end with exactly the mutations
        ``step_span`` makes: ``x``/``r`` in place, a fresh ``p``."""
        st = cg.state
        np.copyto(st.x, self.x)
        np.copyto(st.r, self.r)
        st.p = self.p.copy()
        st.rz = self.rz
        st.iteration = self.iteration
        cg.residual_history.extend(self.history.tolist())


class TrajectoryMemo:
    """Recorded spans of one fault-free trajectory, keyed
    ``(start iteration, requested length)``."""

    def __init__(self) -> None:
        self._problem: tuple | None = None
        self._start: Span | None = None
        self._spans: dict[tuple[int, int], Span] = {}
        #: Iterations installed from the memo instead of walked.
        self.hits = 0
        #: Iterations walked on the trajectory (and recorded).
        self.walked = 0

    def start(self, cg: DistributedCG) -> Span | None:
        """The recorded initial state if ``cg`` starts on the trajectory
        (the first caller records it), else ``None``."""
        # The matrix compares by identity: one Experiment, one matrix.
        problem = (cg.dmat, cg.tol, cg.max_iters, cg.preconditioner, cg.backend)
        if self._start is None:
            self._problem = problem
            self._start = Span.snapshot(cg.state, np.empty(0))
            return self._start
        if problem != self._problem or not self._start.matches(cg.state):
            return None
        return self._start

    def walk(self, cg: DistributedCG, length: int) -> tuple[Span | None, int, bool]:
        """Advance an on-trajectory ``cg`` by up to ``length`` iterations.

        Returns ``(span, taken, breakdown)`` like ``step_span`` plus the
        span now describing ``cg``'s state, or ``None`` once the walk hit
        a breakdown and left the trajectory.
        """
        key = (cg.iteration, length)
        span = self._spans.get(key)
        if span is not None:
            span.install(cg)
            self.hits += span.taken
            return span, span.taken, False
        taken, breakdown = cg.step_span(length)
        self.walked += taken
        if breakdown:
            return None, taken, True
        history = np.array(cg.residual_history[len(cg.residual_history) - taken:])
        span = self._spans[key] = Span.snapshot(cg.state, history)
        return span, taken, False
