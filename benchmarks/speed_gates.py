"""Two speed floors the paper's premise rests on, checked on this host.

* **analytic >= 100x sim.** The simulated faulty LI solve of one cell
  (stencil5 @0.36, 16 ranks, 3 faults) against the Section-3 model of
  the same cell: the models must be cheap enough to pick a scheme per
  allocation.
* **batched >= 5x loop.** One fault-free solve of stencil5 @0.36 at 32
  ranks on the rank-by-rank ``loop`` backend against the vectorized
  ``batched`` one.  32 ranks, because the loop backend's per-rank
  overhead is what the ratio measures; at 16 it reads close to the
  floor.

Each side is the median of 7 timed runs after one warm-up, with
problem set-up (matrix, right-hand side, the model's fault-free
horizon) outside the timed region.  No flags, no output file, no
baseline: it prints both ratios and exits 1 naming any floor missed::

    PYTHONPATH=src python benchmarks/speed_gates.py
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from repro.core.recovery import make_scheme
from repro.core.solver import ResilientSolver, SolverConfig
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.matrices import suite

REPEATS = 7
MATRIX, SCALE = "stencil5", 0.36


def _median_s(op, batch: int = 1) -> float:
    """Median wall seconds of ``op()`` over REPEATS timed calls of
    ``batch`` ops each; one untimed warm-up call primes caches."""
    op()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            op()
        runs.append((time.perf_counter() - t0) / batch)
    return statistics.median(runs)


def _solve_inputs(nranks: int):
    a = suite.build(MATRIX, SCALE)
    b = a @ np.random.default_rng(7).standard_normal(a.shape[0])
    return a, b, nranks


def _run_solver(state, *, scheme=None, n_faults=0, backend="batched") -> None:
    a, b, nranks = state
    report = ResilientSolver(
        a,
        b,
        scheme=make_scheme(scheme, interval_iters=40) if scheme else None,
        schedule=EvenlySpacedSchedule(n_faults=n_faults) if n_faults else None,
        config=SolverConfig(nranks=nranks, tol=1e-8, backend=backend),
    ).solve()
    assert report.converged, "benchmark problem must converge"


def _run_analytic(exp: Experiment, scheme: str) -> None:
    report = exp.engine.solve_scheme(exp, scheme, exp.fault_free)
    assert report.converged, "analytic model must report convergence"


def main() -> int:
    r16, r32 = _solve_inputs(16), _solve_inputs(32)
    exp = Experiment(ExperimentConfig(
        matrix=MATRIX, nranks=16, n_faults=3, scale=SCALE, engine="analytic",
    ))
    exp.fault_free  # the model's one real solve, outside the timed region
    sim_s = _median_s(lambda: _run_solver(r16, scheme="LI", n_faults=3))
    model_s = _median_s(lambda: _run_analytic(exp, "LI"), batch=25)
    batched_s = _median_s(lambda: _run_solver(r32, backend="batched"))
    loop_s = _median_s(lambda: _run_solver(r32, backend="loop"))

    failed = []
    for name, ratio, floor in (
        ("analytic over sim", sim_s / model_s, 100),
        ("batched over loop", loop_s / batched_s, 5),
    ):
        print(f"{name}: {ratio:.1f}x (floor {floor}x)")
        if ratio < floor:
            failed.append(f"{name} {ratio:.1f}x < {floor}x")
    if failed:
        print("FAILED: " + "; ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
