"""Shared fixtures: small, fast systems for unit/integration tests."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.machine import MachineSpec, NodeSpec
from repro.core.solver import ResilientSolver, SolverConfig
from repro.matrices import cache as problem_cache
from repro.matrices.generators import banded_spd, irregular_spd, stencil_5pt


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache_dir(tmp_path_factory):
    """Point the persistent cache at a per-session temp dir.

    Keeps the suite hermetic: results must not depend on whatever the
    repo-root ``.repro-cache/`` happens to hold from earlier campaign or
    benchmark runs, and tests must not pollute it.  The disk layer stays
    enabled so it is still exercised; tests that need full control
    (tests/matrices/test_cache.py) override per-test via monkeypatch.
    """
    prior = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if prior is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = prior


#: Wall-clock seconds one test may take before it fails.
#: ``faulthandler_timeout`` in pyproject.toml dumps every thread's stack
#: shortly before.
TEST_BUDGET_S = 120.0


@pytest.fixture(autouse=True)
def _hang_guard():
    """Fail a test that overruns its budget instead of hanging the suite.

    A SIGALRM timer whose handler raises ``pytest.fail`` in the main
    thread, which interrupts a blocked lock or join.  Code under test
    that arms its own alarm (the campaign runner's cell timeout)
    re-arms this one when it is done.
    """
    if not hasattr(signal, "SIGALRM") or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded its {TEST_BUDGET_S:g}s budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def small_banded() -> sp.csr_matrix:
    """96x96 banded SPD, well conditioned (fast CG)."""
    return banded_spd(96, 5, dominance=0.05, seed=0)


@pytest.fixture(scope="session")
def medium_banded() -> sp.csr_matrix:
    """600x600 banded SPD, moderately conditioned."""
    return banded_spd(600, 9, dominance=1e-3, seed=1)


@pytest.fixture(scope="session")
def small_irregular() -> sp.csr_matrix:
    return irregular_spd(120, 7, dominance=0.05, seed=2, value_spread=0.5)


@pytest.fixture(scope="session")
def small_stencil() -> sp.csr_matrix:
    return stencil_5pt(10)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def small_system(small_banded, rng):
    """(DistributedMatrix over 4 ranks, b, x_true) for the small matrix.

    The DistributedMatrix comes from the session-wide problem cache, so
    every test (and every solver built on the same matrix/rank count)
    shares one halo analysis instead of redoing it per test.
    """
    n = small_banded.shape[0]
    x_true = rng.standard_normal(n)
    b = small_banded @ x_true
    dmat = problem_cache.distributed_matrix(small_banded, 4)
    return dmat, b, x_true


def quick_config(nranks: int = 4, **kw) -> SolverConfig:
    """Small machine, loose tolerance — keeps unit tests fast."""
    defaults = dict(
        nranks=nranks,
        tol=1e-8,
        max_iters=20_000,
        machine=MachineSpec(nodes=2, node=NodeSpec(sockets=1, cores_per_socket=4)),
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.fixture()
def solver_factory(small_banded, rng):
    """Factory building a ResilientSolver on the small system."""
    n = small_banded.shape[0]
    x_true = rng.standard_normal(n)
    b = small_banded @ x_true

    def build(scheme=None, schedule=None, nranks: int = 4, **cfg_kw):
        return ResilientSolver(
            small_banded,
            b,
            scheme=scheme,
            schedule=schedule,
            config=quick_config(nranks=nranks, **cfg_kw),
        )

    return build
