"""Measurement protocol for the perf-regression harness.

Every benchmark is median-of-N wall seconds of one operation, with the
setup (matrix generation, RHS, schedules) excluded from the timed
region.  Raw seconds are useless as a regression gate — CI runners and
laptops differ by multiples — so each benchmark is also reported as a
**normalized score**: its median divided by the median of a fixed
reference kernel measured in the same process moments earlier.  The
references bracket the two cost classes the solver mixes:

* ``matvec`` — SpMV throughput (numpy/scipy kernel speed);
* ``pyloop`` — interpreter throughput (per-iteration bookkeeping).

A benchmark normalizes against whichever class dominates it, so a score
is approximately "how many reference-kernel units does this op cost" —
a machine-independent quantity whose drift measures *our* code, not the
hardware.  :func:`compare` gates on those scores: a benchmark regresses
when its score grows more than ``tolerance`` (default 25%) over the
committed baseline (``BENCH_perf.json``).

The ``smoke`` suite covers the stencil problem class only and is sized
for CI (seconds, not minutes); ``full`` adds the banded and irregular
classes and a faulty solve on the ``loop`` backend.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCHEMA_VERSION = 1

#: Timed repetitions per benchmark (median taken).
DEFAULT_REPEATS = 5


# ----------------------------------------------------------------------
# reference kernels
# ----------------------------------------------------------------------
def _ref_matvec_once() -> float:
    from repro.matrices.generators import stencil_5pt

    a = stencil_5pt(60)  # 3600 rows, fixed forever: the unit of SpMV work
    x = np.linspace(0.0, 1.0, a.shape[0])
    t0 = time.perf_counter()
    for _ in range(200):
        x = a @ x
    return time.perf_counter() - t0


def _ref_pyloop_once() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):  # fixed forever: the unit of interpreter work
        acc += i * 1e-9
        if acc > 1e12:  # never taken; keeps the loop body honest
            break
    return time.perf_counter() - t0


def calibrate(repeats: int = DEFAULT_REPEATS) -> dict[str, float]:
    """Median seconds of each reference kernel on this machine."""
    return {
        "matvec_s": statistics.median(_ref_matvec_once() for _ in range(repeats)),
        "pyloop_s": statistics.median(_ref_pyloop_once() for _ in range(repeats)),
    }


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchSpec:
    """One microbenchmark: ``setup()`` once, time ``op(state)`` N times."""

    name: str
    ref: str                      # "matvec" | "pyloop"
    setup: Callable[[], object]
    op: Callable[[object], None]
    suites: tuple[str, ...] = ("smoke", "full")
    #: ops per timed call; reported times are per-op.  Raise it for
    #: microsecond-scale ops so the timer and GC noise amortize away.
    batch: int = 1


def _solve_inputs(matrix: str, scale: float, nranks: int):
    """(a, b) for a suite matrix — built outside the timed region."""
    from repro.matrices import suite

    a = suite.build(matrix, scale)
    rng = np.random.default_rng(7)
    b = a @ rng.standard_normal(a.shape[0])
    return a, b, nranks


def _run_solver(state, *, scheme=None, n_faults=0, trace=False,
                backend=None, victims_per_fault=1):
    from repro.core.backends import DEFAULT_BACKEND
    from repro.core.recovery import make_scheme
    from repro.core.solver import ResilientSolver, SolverConfig
    from repro.faults.schedule import EvenlySpacedSchedule

    a, b, nranks = state
    solver = ResilientSolver(
        a,
        b,
        scheme=make_scheme(scheme, interval_iters=40) if scheme else None,
        schedule=EvenlySpacedSchedule(
            n_faults=n_faults, victims_per_fault=victims_per_fault
        ) if n_faults else None,
        config=SolverConfig(
            nranks=nranks, tol=1e-8, trace=trace,
            backend=backend or DEFAULT_BACKEND,
        ),
    )
    report = solver.solve()
    assert report.converged, "benchmark problem must converge"


def _setup_cold(state) -> None:
    """Full problem setup with every cache bypassed."""
    from repro.cluster.comm import SimComm
    from repro.core.cg import IterationCosts
    from repro.core.solver import SolverConfig
    from repro.matrices import suite
    from repro.matrices.distributed import DistributedMatrix
    from repro.matrices.partition import BlockRowPartition

    matrix, scale, nranks = state
    a = suite.build(matrix, scale, cache=False)
    dmat = DistributedMatrix(a, BlockRowPartition(a.shape[0], nranks)).warm()
    cfg = SolverConfig(nranks=nranks)
    IterationCosts.measure(dmat, SimComm(cfg.machine, nranks, cfg.network),
                           preconditioned=False)


def _analytic_experiment(matrix: str, scale: float, nranks: int, n_faults: int):
    """A primed analytic-engine experiment: the FF horizon (the one real
    solve the model needs) is computed here, outside the timed region,
    so the timed op is the pure closed-form scheme evaluation."""
    from repro.harness.experiment import Experiment, ExperimentConfig

    exp = Experiment(
        ExperimentConfig(
            matrix=matrix, nranks=nranks, n_faults=n_faults,
            scale=scale, engine="analytic",
        )
    )
    exp.fault_free
    return exp


def _run_analytic(exp, scheme: str) -> None:
    report = exp.engine.solve_scheme(exp, scheme, exp.fault_free)
    assert report.converged, "analytic model must report convergence"


BENCHMARKS: list[BenchSpec] = [
    BenchSpec(
        "setup_cold.stencil", "matvec",
        setup=lambda: ("stencil5", 0.36, 16),
        op=_setup_cold,
    ),
    BenchSpec(
        "solve_ff.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(s),
    ),
    BenchSpec(
        "solve_faulty_li.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(s, scheme="LI", n_faults=3),
    ),
    BenchSpec(
        "solve_faulty_cr.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(s, scheme="CR-M", n_faults=3),
    ),
    BenchSpec(
        "solve_traced_li.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(s, scheme="LI", n_faults=3, trace=True),
    ),
    # the victim-set fault path: three two-rank simultaneous losses
    # recovered by exact state reconstruction (no restart, so the cost
    # is pure per-victim rebuild work — the multi-fault hot path)
    BenchSpec(
        "solve_esr_multifault.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(
            s, scheme="ESR", n_faults=3, victims_per_fault=2
        ),
    ),
    BenchSpec(
        "model_faulty_li.stencil", "pyloop",
        setup=lambda: _analytic_experiment("stencil5", 0.36, 16, 3),
        op=lambda s: _run_analytic(s, "LI"),
        batch=25,
    ),
    # the two sides of backend_speedup(): the same fault-free solve on
    # the vectorized default backend and the rank-by-rank reference.
    # 32 ranks (vs the other benches' 16) because the loop backend's
    # per-rank overhead is what the readout measures — at 16 ranks the
    # ratio sits too close to the CI gate's 5x floor to be a stable gate
    BenchSpec(
        "solve_batched_ff.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 32),
        op=lambda s: _run_solver(s, backend="batched"),
    ),
    BenchSpec(
        "solve_loop_ff.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 32),
        op=lambda s: _run_solver(s, backend="loop"),
    ),
    # full-suite extras: the other matrix classes + the loop backend
    BenchSpec(
        "solve_ff.banded", "pyloop",
        setup=lambda: _solve_inputs("Kuu", 0.5, 16),
        op=lambda s: _run_solver(s),
        suites=("full",),
    ),
    BenchSpec(
        "solve_faulty_lsi.irregular", "pyloop",
        setup=lambda: _solve_inputs("ex15", 0.4, 16),
        op=lambda s: _run_solver(s, scheme="LSI", n_faults=3),
        suites=("full",),
    ),
    BenchSpec(
        "solve_loop_faulty_li.stencil", "pyloop",
        setup=lambda: _solve_inputs("stencil5", 0.36, 16),
        op=lambda s: _run_solver(s, scheme="LI", n_faults=3, backend="loop"),
        suites=("full",),
    ),
]


def suite_names() -> list[str]:
    return ["smoke", "full"]


def run_suite(
    suite: str = "smoke",
    repeats: int = DEFAULT_REPEATS,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run one suite; returns the JSON-ready results document."""
    if suite not in suite_names():
        raise ValueError(f"unknown suite {suite!r}; known: {suite_names()}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    calibration = calibrate(repeats)
    results: dict[str, dict] = {}
    for spec in BENCHMARKS:
        if suite not in spec.suites:
            continue
        if progress is not None:
            progress(spec.name)
        state = spec.setup()
        spec.op(state)  # warm-up: JIT-free, but primes caches and imports
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(spec.batch):
                spec.op(state)
            runs.append((time.perf_counter() - t0) / spec.batch)
        median = statistics.median(runs)
        ref_s = calibration[f"{spec.ref}_s"]
        results[spec.name] = {
            "median_s": median,
            "normalized": median / ref_s,
            "ref": spec.ref,
            "runs_s": runs,
        }
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "repeats": repeats,
        "calibration": calibration,
        "benchmarks": results,
    }


def model_speedup(doc: dict) -> float | None:
    """Wall-clock ratio of the simulated faulty LI solve to the analytic
    model of the same cell — the headline "why two engines" number.
    ``None`` when the suite did not run both sides."""
    bench = doc["benchmarks"]
    try:
        sim_s = bench["solve_faulty_li.stencil"]["median_s"]
        model_s = bench["model_faulty_li.stencil"]["median_s"]
    except KeyError:
        return None
    return sim_s / model_s if model_s > 0 else float("inf")


def backend_speedup(doc: dict) -> float | None:
    """Wall-clock ratio of the ``loop`` backend to the ``batched``
    backend on the same fault-free solve — what vectorizing across
    ranks buys (the CI gate asserts >= 5x).  ``None`` when the suite
    did not run both backends."""
    bench = doc["benchmarks"]
    try:
        loop_s = bench["solve_loop_ff.stencil"]["median_s"]
        batched_s = bench["solve_batched_ff.stencil"]["median_s"]
    except KeyError:
        return None
    return loop_s / batched_s if batched_s > 0 else float("inf")


# ----------------------------------------------------------------------
# comparison gate
# ----------------------------------------------------------------------
def compare(current: dict, baseline: dict, tolerance: float = 0.25) -> dict:
    """Gate ``current`` against ``baseline`` on normalized scores.

    Returns ``{"rows": [...], "regressions": [names]}``; a benchmark
    regresses when its score exceeds the baseline's by more than
    ``tolerance`` (relative).  Benchmarks present on only one side are
    reported but never fail the gate (suites evolve).
    """
    rows = []
    regressions = []
    cur, base = current["benchmarks"], baseline["benchmarks"]
    for name in sorted(set(cur) | set(base)):
        if name not in cur:
            rows.append({"name": name, "status": "removed"})
            continue
        if name not in base:
            rows.append({"name": name, "status": "new",
                         "normalized": cur[name]["normalized"]})
            continue
        b, c = base[name]["normalized"], cur[name]["normalized"]
        ratio = c / b if b > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "regression"
            regressions.append(name)
        elif ratio < 1.0 - tolerance:
            status = "improved"
        rows.append({
            "name": name, "status": status, "baseline": b,
            "normalized": c, "ratio": ratio,
        })
    return {"rows": rows, "regressions": regressions, "tolerance": tolerance}


# ----------------------------------------------------------------------
# formatting / IO
# ----------------------------------------------------------------------
def format_results(doc: dict) -> str:
    lines = [
        f"perf suite '{doc['suite']}' (median of {doc['repeats']}; "
        f"refs: matvec {doc['calibration']['matvec_s'] * 1e3:.1f}ms, "
        f"pyloop {doc['calibration']['pyloop_s'] * 1e3:.1f}ms)",
        f"{'benchmark':<28} {'median':>9} {'score':>9}  ref",
    ]
    for name, r in doc["benchmarks"].items():
        lines.append(
            f"{name:<28} {r['median_s'] * 1e3:>7.1f}ms {r['normalized']:>9.2f}"
            f"  {r['ref']}"
        )
    speedup = model_speedup(doc)
    if speedup is not None:
        lines.append(
            f"analytic model speedup: {speedup:.0f}x vs the simulated "
            "faulty LI solve of the same cell"
        )
    b_speedup = backend_speedup(doc)
    if b_speedup is not None:
        lines.append(
            f"backend speedup: {b_speedup:.1f}x batched over the "
            "rank-by-rank loop on the fault-free solve"
        )
    return "\n".join(lines)


def format_comparison(cmp: dict) -> str:
    lines = [
        f"perf gate (tolerance {cmp['tolerance']:.0%} on normalized scores)",
        f"{'benchmark':<28} {'base':>9} {'now':>9} {'ratio':>7}  status",
    ]
    for row in cmp["rows"]:
        if row["status"] in ("new", "removed"):
            score = row.get("normalized")
            lines.append(
                f"{row['name']:<28} {'-':>9} "
                f"{(f'{score:.2f}' if score is not None else '-'):>9} {'-':>7}"
                f"  {row['status']}"
            )
            continue
        lines.append(
            f"{row['name']:<28} {row['baseline']:>9.2f} {row['normalized']:>9.2f}"
            f" {row['ratio']:>6.2f}x  {row['status']}"
        )
    if cmp["regressions"]:
        lines.append(f"FAILED: {len(cmp['regressions'])} regression(s): "
                     + ", ".join(cmp["regressions"]))
    else:
        lines.append("PASSED: no regressions")
    return "\n".join(lines)


def load(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return doc


def save(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
