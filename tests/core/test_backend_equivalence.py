"""Differential equivalence: one grid, three executions, one oracle.

Every case runs three ways — the production span loop on the
``batched`` backend, the span loop on the ``loop`` backend, and the
per-iteration oracle on ``loop`` (``tests.differential.
PerIterationSolver``) — and both span executions must match the oracle.
The ``batched`` backend executes each CG iteration with global
vectorized kernels; ``loop`` walks rank by rank through packed per-rank
CSR blocks.  Both share the global reduction operators, and the span
loop replays the per-iteration bookkeeping rather than summarising it,
so the contract (DESIGN.md §5e, §5j) is **bitwise identity** of every
seed-visible observable — reports, residual histories, energy charges,
telemetry — across every scheme, matrix class and engine, under evenly
spaced, Poisson, and fuzzed adversarial fault schedules.

Tolerances are pinned by ``tests/core/golden/backend_tolerance.json``
(all bitwise today); on failure a JSON divergence artifact is written
to ``backend-equivalence-diff/`` for the CI job to upload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    DEFAULT_BACKEND,
    backend_names,
    make_backend,
)
from repro.core.cg import DistributedCG
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition
from repro.core.recovery import scheme_names
from repro.core.solver import SolverConfig
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.experiment import Experiment, ExperimentConfig
from tests.differential import (
    MATRICES,
    POISSON_CASES,
    POLICY,
    FaultScheduleFuzzer,
    build,
    check_case,
    check_poisson,
    ulp_distance,
)


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------

def test_registry():
    assert backend_names() == ["batched", "loop"]
    assert DEFAULT_BACKEND == "batched"


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(ValueError, match="unknown backend"):
        SolverConfig(backend="simd")
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentConfig(backend="simd")
    a = build("stencil")
    dmat = DistributedMatrix(a, BlockRowPartition(a.shape[0], 4))
    cg = DistributedCG(dmat, np.ones(a.shape[0]))
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("simd", cg)


def test_the_span_loop_has_no_switch():
    # the per-iteration loop is the tests' oracle, not a solver option
    with pytest.raises(TypeError):
        SolverConfig(fast=False)


def test_tolerance_policy_is_all_bitwise_today():
    # Loosening a field is a deliberate golden-file edit; this pins the
    # current policy so an accidental relaxation fails loudly.
    for name, rule in POLICY.items():
        assert rule["mode"] in ("bitwise", "ulp"), name
    assert all(rule["mode"] == "bitwise" for rule in POLICY.values())


def test_ulp_distance():
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, np.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(np.nextafter(1.0, 2.0), 1.0) == 1
    assert ulp_distance(-0.0, 0.0) == 0
    # crosses zero monotonically
    assert ulp_distance(np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0)) == 2


# ----------------------------------------------------------------------
# the full differential sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("scheme", scheme_names())
def test_backends_identical_all_schemes(scheme, matrix):
    report = check_case(matrix, scheme)
    assert report.faults, "equivalence run must actually exercise recovery"


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_backends_identical_fault_free(matrix):
    assert not check_case(matrix, None).faults


@pytest.mark.parametrize("scheme", scheme_names())
def test_backends_identical_traced(scheme):
    """Traced: identical metrics snapshots and trace JSONL too — phase
    transitions, recovery spans, checkpoint events, ..."""
    check_case("banded", scheme, trace=True)


def test_fault_free_traced():
    for matrix in ("banded", "stencil"):
        check_case(matrix, None, trace=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_backends_identical_poisson(seed):
    """Random (seeded) fault times land mid-span; spans must split on
    them exactly where the per-iteration loop observes them."""
    for case in POISSON_CASES:
        check_poisson(case, seed)


def test_backends_identical_preconditioned():
    check_case("banded", "LSI", preconditioner="jacobi")
    check_case("irregular", "LI", preconditioner="jacobi")


def test_backends_identical_capped():
    """An iteration cap stops every execution at the same iteration
    with the same books; a power cap's DVFS-derated iteration costs flow
    through span charging too."""
    for scheme in ("RD", "F0"):
        report = check_case("banded", scheme, max_iters=97, baseline_iters=150)
        assert not report.converged
        assert report.iterations == 97
    check_case("banded", "CR-M", power_cap_w=260.0)


def test_fast_backend_cross():
    """Span × backend × per-iteration is one equivalence class, traced,
    on the stencil."""
    check_case("stencil", "LI", trace=True)


# ----------------------------------------------------------------------
# fuzzed adversarial schedules
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_backends_identical_fuzzed(seed):
    matrix = sorted(MATRICES)[seed % len(MATRICES)]
    fuzzer = FaultScheduleFuzzer(
        nranks=8, horizon_iters=check_case(matrix, None).iterations, hook_interval=40
    )
    schedule = fuzzer.generate(seed)
    scheme = scheme_names()[seed % len(scheme_names())]
    check_case(
        matrix, scheme, schedule=schedule, context=fuzzer.repro_hint(seed)
    )


@pytest.mark.parametrize(
    "seed,scheme", [(0, "ESR"), (1, "ABCR"), (2, "LI"), (3, "RD")]
)
def test_backends_identical_fuzzed_multivictim(seed, scheme):
    """Victim-set schedules: simultaneous sets at iteration 0,
    all-ranks-but-one, and span-boundary multi-victim events must stay
    bitwise identical too."""
    matrix = sorted(MATRICES)[seed % len(MATRICES)]
    fuzzer = FaultScheduleFuzzer(
        nranks=8, horizon_iters=check_case(matrix, None).iterations, hook_interval=40
    )
    schedule = fuzzer.generate_multivictim(seed)
    check_case(
        matrix, scheme, schedule=schedule,
        context=fuzzer.repro_hint(seed, method="generate_multivictim"),
    )


@pytest.mark.parametrize("scheme", ["ESR", "ABCR"])
def test_backends_identical_victims_per_fault(scheme):
    """The ``victims_per_fault`` schedule axis."""
    check_case(
        "banded", scheme,
        schedule=EvenlySpacedSchedule(n_faults=2, victims_per_fault=2),
        context=f"{scheme}-victims_per_fault=2",
    )


# ----------------------------------------------------------------------
# engine invariance
# ----------------------------------------------------------------------

def test_analytic_engine_backend_invariant():
    """The analytic engine replays closed-form models off the fault-free
    baseline; since the backends are bit-identical, the analytic reports
    must be too."""
    reports = {}
    for backend in ("batched", "loop"):
        cfg = ExperimentConfig(
            matrix="wathen100", nranks=8, n_faults=2, seed=0,
            scale=0.25, engine="analytic", backend=backend,
        )
        exp = Experiment(cfg)
        reports[backend] = exp.run("RD")
    a, b = reports["loop"], reports["batched"]
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.time_s == b.time_s
    assert a.energy_j == b.energy_j
