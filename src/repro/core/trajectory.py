"""The fault-free CG trajectory, walked once per experiment.

Every solve of an experiment starts from the same CG state and walks
the fault-free iterations until something perturbs it: the fault-free
baseline walks all of them, RD and ESR repair a fault to the exact
pre-fault state and stay on that trajectory to convergence, and every
other scheme leaves it at its first fault.  A :class:`TrajectoryMemo`
lets those solves share one walk.  It is indexed by iteration: one
float64 column of the walked iterations' residuals, and recorded CG
states — the state at every walk's end, plus states on a cadence while
walking.  A solve asking to advance from iteration ``it`` by ``length``
installs the furthest recorded state in ``(it, it + length]`` with its
residual slice, and steps only the rest.  Like ``step_span``, a walk
stops after the first iteration whose residual is within tolerance; the
residual column says where that is, so a walk is capped at convergence.

The cadence states stay under :data:`CADENCE_BUDGET_BYTES`: at most
``cap``, the states the budget holds.  A walk at iteration ``s`` records
one every ``max(FIRST_SPACING, s // cap)`` iterations, and while the
cadence holds more than ``cap`` the state whose neighbours are closest
together is dropped, so a long trajectory keeps the whole budget, its
states spread nearly evenly over the walk.

A solve is *on trajectory* while its CG state is bitwise the recorded
state at that iteration.  :meth:`TrajectoryMemo.start` proves it for the
initial state, :meth:`Point.matches` re-proves it before every walk, so
whatever ran in between (a scheme hook, a fault and its recovery, a
restart) is covered by one comparison.  A breakdown is never recorded:
the solve steps off the trajectory there.  Each residual slice is
recorded before any state that points into it, so a walk interrupted
anywhere (a cell timeout's ``SIGALRM``) leaves the memo consistent.

The memo lives as long as the :class:`~repro.harness.experiment.
Experiment` that owns it and is handed to each solve as an argument;
nothing in a :class:`~repro.core.report.SolveReport` references it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from repro.core.cg import CGState, DistributedCG

#: Bytes of cadence states one memo keeps (walk ends are not counted).
CADENCE_BUDGET_BYTES = 1 << 20
#: The fewest iterations between two cadence states.
FIRST_SPACING = 8


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality (``-0.0`` and ``0.0`` differ; so would a
    NaN payload) — stricter than ``np.array_equal`` on floats."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@dataclass(frozen=True)
class Point:
    """The trajectory's CG state at one iteration."""

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rz: float
    iteration: int

    @classmethod
    def snapshot(cls, state: CGState) -> "Point":
        x, r, p = np.stack((state.x, state.r, state.p))  # one allocation
        return cls(x, r, p, state.rz, state.iteration)

    @property
    def nbytes(self) -> int:
        return self.x.nbytes + self.r.nbytes + self.p.nbytes

    def matches(self, state: CGState) -> bool:
        """Whether ``state`` is bitwise this point's state."""
        return (
            state.iteration == self.iteration
            and float(state.rz).hex() == float(self.rz).hex()
            and _same_bits(state.x, self.x)
            and _same_bits(state.r, self.r)
            and _same_bits(state.p, self.p)
        )

    def install(self, cg: DistributedCG, history: np.ndarray) -> None:
        """Advance ``cg`` to this point with exactly the mutations
        ``step_span`` makes (``x``/``r`` in place, a fresh ``p``),
        appending ``history``, the residuals of the iterations skipped."""
        st = cg.state
        np.copyto(st.x, self.x)
        np.copyto(st.r, self.r)
        st.p = self.p.copy()
        st.rz = self.rz
        st.iteration = self.iteration
        cg.residual_history.extend(history.tolist())


class TrajectoryMemo:
    """One fault-free trajectory from iteration 0, indexed by iteration."""

    def __init__(self) -> None:
        self._problem: tuple | None = None
        #: Recorded states by iteration, and their sorted iterations.
        self._points: dict[int, Point] = {}
        self._its: list[int] = []
        #: Iterations whose state is held on the cadence (budgeted).
        self._cadence: set[int] = set()
        #: ``_history[i]`` is the residual after iteration ``i + 1``, for
        #: every iteration up to ``_reach``.
        self._history = np.empty(0)
        self._reach = 0
        #: The most iterations that ever lay between two neighbouring
        #: recorded states: a walk re-steps fewer than this to reach any
        #: iteration the memo has recorded.
        self.max_gap = 0
        #: Iterations installed from the memo instead of walked.
        self.hits = 0
        #: Iterations walked on the trajectory (and recorded).
        self.walked = 0

    @property
    def cadence_bytes(self) -> int:
        """Bytes the cadence states hold (at most the budget)."""
        return sum(self._points[k].nbytes for k in self._cadence)

    def start(self, cg: DistributedCG) -> Point | None:
        """The recorded initial state if ``cg`` starts on the trajectory
        (the first caller records it), else ``None``."""
        if cg.iteration != 0:
            return None
        # The matrix compares by identity: one Experiment, one matrix.
        problem = (cg.dmat, cg.tol, cg.max_iters, cg.preconditioner, cg.backend)
        if self._problem is None:
            self._problem = problem
            self._put(Point.snapshot(cg.state))
        first = self._points[0]
        if problem != self._problem or not first.matches(cg.state):
            return None
        return first

    def walk(self, cg: DistributedCG, length: int) -> tuple[Point | None, int, bool]:
        """Advance an on-trajectory ``cg`` by up to ``length`` iterations.

        Returns ``(point, taken, breakdown)`` like ``step_span`` plus the
        point now describing ``cg``'s state, or ``None`` once the walk
        hit a breakdown and left the trajectory.
        """
        it = cg.iteration
        end = it + length
        # step_span stops after the first iteration whose residual is
        # within tolerance: so does the walk
        under = self._history[it : min(end, self._reach)] <= cg.tol
        first = int(under.argmax()) if under.size else 0
        target = it + 1 + first if under.size and under[first] else end
        at = self._its[bisect_right(self._its, target) - 1]
        if at > it:
            point = self._points[at]
            point.install(cg, self._history[it:at])
            self.hits += at - it
            if at == target:
                return point, at - it, False
        cap = CADENCE_BUDGET_BYTES // self._points[0].nbytes
        while cg.iteration < end:
            s = cg.iteration
            cut = s + max(FIRST_SPACING, s // cap) if cap else end
            taken, breakdown = cg.step_span(min(end, cut) - s)
            self.walked += taken
            if breakdown:
                return None, cg.iteration - it, True
            self._extend_history(cg, s + taken)
            if cg.residual_history[-1] <= cg.tol:  # where step_span stops
                break
            if cut < end:
                self._add_cadence(cg.state, cap)
        point = self._points.get(cg.iteration)
        if point is None:
            point = Point.snapshot(cg.state)
            self._put(point)
        else:
            self._cadence.discard(point.iteration)  # a walk end: kept
        return point, cg.iteration - it, False

    # ------------------------------------------------------------------
    def _put(self, point: Point) -> None:
        # The dict first: an interrupted insert leaves a state no lookup
        # finds, never a listed iteration without its state.
        self._points[point.iteration] = point
        its = self._its
        insort(its, point.iteration)
        if its[-1] == point.iteration and len(its) > 1:  # a new last gap
            self.max_gap = max(self.max_gap, its[-1] - its[-2])

    def _extend_history(self, cg: DistributedCG, upto: int) -> None:
        """Record the residuals of iterations ``_reach + 1 .. upto``,
        the last ones ``cg`` appended."""
        new = upto - self._reach
        if new <= 0:
            return
        if upto > self._history.size:
            grown = np.empty(max(upto, 2 * self._history.size))
            grown[: self._reach] = self._history[: self._reach]
            self._history = grown
        hist = cg.residual_history
        self._history[self._reach : upto] = hist[len(hist) - new :]
        self._reach = upto

    def _add_cadence(self, state: CGState, cap: int) -> None:
        if state.iteration in self._points:
            return
        self._put(Point.snapshot(state))
        self._cadence.add(state.iteration)
        its = self._its
        while len(self._cadence) > cap:
            # the cadence state whose neighbours are closest together; the
            # last recorded state has no right neighbour yet and stays
            span, i = min(
                (its[i + 1] - its[i - 1], i)
                for i in range(1, len(its) - 1)
                if its[i] in self._cadence
            )
            self._cadence.discard(its[i])
            del self._points[its.pop(i)]
            self.max_gap = max(self.max_gap, span)
