"""The fault-free horizon probe counts what the full solve counts.

:func:`repro.matrices.cache.fault_free_horizon` runs
:func:`repro.core.cg.fault_free_iterations`, which steps only CG's
``r``, ``p``, ``rz`` recurrence.  Differentially, against
``DistributedCG(...).solve_fault_free()``: every suite matrix at two
scales, several right-hand sides, plain and Jacobi CG; an iteration cap
too small to converge (the same ``ConvergenceError``, nothing memoized);
and a breakdown, which falls back to the full solve.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.cg import DistributedCG, fault_free_iterations
from repro.core.errors import ConvergenceError
from repro.matrices import cache, suite

SCALES = (0.1, 0.25)
SEEDS = (0, 1, 2)
PRECONDITIONERS = (None, "jacobi")
TOL = 1e-8
MAX_ITERS = 200_000
NRANKS = 4


@pytest.fixture(autouse=True)
def empty_memo():
    cache.clear_memory_caches()
    yield
    cache.clear_memory_caches()


def _system(name: str, scale: float, seed: int):
    a = suite.build(name, scale)
    b = a @ np.random.default_rng(seed).standard_normal(a.shape[0])
    return cache.distributed_matrix(a, NRANKS), b


def _full_solve(dmat, b, *, max_iters=MAX_ITERS, preconditioner=None):
    cg = DistributedCG(
        dmat, b, tol=TOL, max_iters=max_iters, preconditioner=preconditioner
    )
    return cg.solve_fault_free(), cg


def _entries() -> int:
    return cache.cache_stats()["horizons"]["entries"]


@pytest.mark.parametrize("name", suite.names())
def test_the_probe_counts_what_the_solve_counts(name):
    for scale in SCALES:
        for seed in SEEDS:
            dmat, b = _system(name, scale, seed)
            for pc in PRECONDITIONERS:
                expected, cg = _full_solve(dmat, b, preconditioner=pc)
                assert cg.converged
                got = cache.fault_free_horizon(
                    dmat,
                    b,
                    tol=TOL,
                    max_iters=MAX_ITERS,
                    preconditioner=pc,
                    seed=seed,
                )
                assert got == expected, (scale, seed, pc)


@pytest.mark.parametrize("pc", PRECONDITIONERS)
def test_an_unconverged_probe_raises_the_solves_residual_and_is_not_kept(pc):
    dmat, b = _system("wathen100", 0.25, 0)
    taken, cg = _full_solve(dmat, b, max_iters=5, preconditioner=pc)
    assert taken == 5 and not cg.converged
    with pytest.raises(ConvergenceError) as exc:
        cache.fault_free_horizon(
            dmat, b, tol=TOL, max_iters=5, preconditioner=pc, seed=0
        )
    assert exc.value.iterations == 5
    assert exc.value.tol == TOL
    assert exc.value.final_residual == cg.relative_residual
    assert _entries() == 0
    # the failure was not memoized: a cap that converges still probes
    assert cache.fault_free_horizon(
        dmat, b, tol=TOL, max_iters=MAX_ITERS, preconditioner=pc, seed=0
    ) == _full_solve(dmat, b, preconditioner=pc)[0]
    assert _entries() == 1


def _singular_system():
    """``diag(1, 0)`` against ``b = (1, 1)``: the second iteration's
    ``p`` lies in the null space (``p·Ap = 0``), so CG breaks down and
    the full solve restarts from the true residual, again and again."""
    a = sp.csr_matrix(np.diag([1.0, 0.0]))
    return cache.distributed_matrix(a, 1), np.ones(2)


def test_a_breakdown_falls_back_to_the_full_solve():
    dmat, b = _singular_system()
    taken, cg = _full_solve(dmat, b, max_iters=9)
    assert cg.restarts > 0 and not cg.converged
    with pytest.raises(ConvergenceError) as exc:
        fault_free_iterations(dmat, b, tol=TOL, max_iters=9)
    assert exc.value.iterations == taken
    assert exc.value.final_residual == cg.relative_residual


def test_an_unrecoverable_breakdown_raises_what_the_solve_raises():
    dmat = cache.distributed_matrix(sp.csr_matrix(np.diag([1.0, -1.0])), 1)
    b = np.array([1.0, 2.0])  # p·Ap = 1 - 4 < 0 from the first iteration
    with pytest.raises(FloatingPointError):
        _full_solve(dmat, b)
    with pytest.raises(FloatingPointError):
        cache.fault_free_horizon(dmat, b, tol=TOL, max_iters=MAX_ITERS)
    assert _entries() == 0
