"""Span loop ≡ per-iteration loop: the oracle cases under their own ids.

The solver runs span-batched only; the per-iteration loop it must match
bit for bit is the test oracle ``tests.differential.PerIterationSolver``.
Every case here is a case of the three-way grid in
``test_backend_equivalence.py`` (span × batched, span × loop, oracle ×
loop) and goes through the same :func:`tests.differential.check_case`,
which solves a case once per session — so after that file has run,
these tests only re-assert the case-specific expectations.
"""

from __future__ import annotations

import pytest

from repro.core.recovery.factory import scheme_names
from tests.differential import MATRICES, check_case, check_poisson


@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_all_schemes_bit_identical(matrix_name, scheme_name):
    assert check_case(matrix_name, scheme_name).faults


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_traced_runs_identical_telemetry(scheme_name):
    check_case("banded", scheme_name, trace=True)


def test_fault_free_identical():
    assert not check_case("banded", None).faults


def test_fault_free_traced_identical():
    check_case("banded", None, trace=True)


def test_poisson_schedule_identical():
    for seed in (1, 2, 3):
        assert check_poisson("banded-LI", seed).faults


def test_preconditioned_identical():
    check_case("banded", "LSI", preconditioner="jacobi")


def test_max_iters_cap_identical():
    report = check_case("banded", "F0", max_iters=97, baseline_iters=150)
    assert not report.converged
    assert report.iterations == 97


def test_power_capped_identical():
    check_case("banded", "CR-M", power_cap_w=260.0)
