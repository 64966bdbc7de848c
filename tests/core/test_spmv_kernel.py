"""The span loop's SpMV kernel is picked from structure, and is exact.

:attr:`DistributedMatrix.spmv` (``core.backends.spmv_kernel``) runs
scipy's ``dia_matvec`` on a matrix whose every occupied diagonal is
full, and ``csr_matvec`` otherwise.  On the first kind both kernels add
the same products onto the same running sums in the same order, so the
product is ``a @ v`` bit for bit; a padded diagonal slot would add
``0 * v_j``, which is NaN where ``v_j`` is not finite.  Pinned here:
which kernel every suite matrix gets, the bits of the product on
vectors holding NaN, infinities, signed zeros and subnormals, the
matrices that must stay on CSR, and that choosing warns of nothing.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import spmv_kernel
from repro.matrices import suite
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition

#: The suite matrices whose occupied diagonals are all full, at both
#: scales below; every other suite matrix stays on CSR.
DIA_MATRICES = {
    "bcsstk06", "msc01050", "bcsstk16", "Kuu", "t2dahe", "crystm02",
    "wathen100", "nd24k",
}
SCALES = (0.25, 1.0)


def _dmat(a) -> DistributedMatrix:
    return DistributedMatrix(a, BlockRowPartition(a.shape[0], 4))


def _product(kernel, operands, v: np.ndarray, m: int | None = None) -> np.ndarray:
    """What the span loop computes: ``q.fill(0.0)``, then the kernel."""
    q = np.empty(v.size if m is None else m)
    q.fill(0.0)
    kernel(*operands, v, q)
    return q


def _assert_bitwise(got: np.ndarray, want: np.ndarray, what: str = "") -> None:
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, f"{what}: {differ.size} entries differ, first at {differ[:5]}"


def _vectors(n: int) -> dict[str, np.ndarray]:
    """Inputs whose every non-finite entry is one NaN (``np.nan``, what
    a hard fault writes) or an infinity, never both in one vector."""
    rng = np.random.default_rng(n)
    special = rng.standard_normal(n)
    special[::5] = 0.0
    special[1::7] = -0.0
    special[2::11] = 5e-324          # the smallest subnormal
    special[3::13] = -2.2e-308       # a subnormal near the normal range
    faulted = rng.standard_normal(n)
    faulted[n // 3 : n // 2] = np.nan  # one rank's rows after a hard fault
    infinite = rng.standard_normal(n)
    infinite[::17] = np.inf
    infinite[8::23] = -np.inf
    return {
        "signed zeros and subnormals": special,
        "all negative zero": np.full(n, -0.0),
        "hard-fault NaN rows": faulted,
        "infinities": infinite,
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", suite.names())
def test_kernel_choice_per_suite_matrix(name, scale):
    kernel, _ = _dmat(suite.build(name, scale)).spmv
    want = "dia_matvec" if name in DIA_MATRICES else "csr_matvec"
    assert kernel.__name__ == want


@pytest.mark.parametrize("name", sorted(DIA_MATRICES))
def test_dia_product_is_the_csr_product_bit_for_bit(name):
    a = _dmat(suite.build(name, 0.25)).a
    kernel, operands = spmv_kernel(a)
    assert kernel.__name__ == "dia_matvec"
    for label, v in _vectors(a.shape[0]).items():
        _assert_bitwise(_product(kernel, operands, v), a @ v, label)


def test_two_different_nans_in_one_row_differ_only_in_which_nan():
    """``inf - inf`` makes the default NaN; when a row then meets an
    input NaN, the compiled adds keep different ones of the two.  Every
    entry is still NaN exactly where CSR's is, and bitwise elsewhere."""
    a = _dmat(suite.build("crystm02", 0.25)).a
    kernel, operands = spmv_kernel(a)
    v = np.random.default_rng(0).standard_normal(a.shape[0])
    v[::7] = np.nan
    v[3::11] = np.inf
    want = a @ v
    got = _product(kernel, operands, v)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    _assert_bitwise(got[~nan], want[~nan])


def test_stencil5_stays_on_csr_because_its_padding_would_show():
    """stencil5's +-1 diagonals hold zeros at the grid rows' ends; a DIA
    product would add ``0 * NaN`` there, and a NaN row of its own."""
    a = _dmat(suite.build("stencil5", 0.25)).a
    kernel, _ = spmv_kernel(a)
    assert kernel.__name__ == "csr_matvec"
    padded = a.todia()
    n = a.shape[0]
    slots = sum(n - abs(int(k)) for k in padded.offsets)
    assert slots > a.nnz
    nx = int(round(n**0.5))
    v = np.ones(n)
    v[::nx] = np.nan  # the first point of every grid row
    # the last point of the grid row before reads it through a padded slot
    assert np.isnan(padded @ v).sum() > np.isnan(a @ v).sum()


def _duplicate_filling_a_hole() -> sp.csr_matrix:
    """A 4x4 main diagonal missing (1, 1), with (0, 0) stored twice:
    its entries count exactly one full diagonal's slots."""
    indptr = np.array([0, 2, 2, 3, 4])
    indices = np.array([0, 0, 2, 3])
    data = np.array([1.0, 2.0, 3.0, 4.0])
    return sp.csr_matrix((data, indices, indptr), shape=(4, 4))


@pytest.mark.parametrize(
    "make",
    [
        lambda: suite.build("ex15", 0.25),
        lambda: suite.build("crystm02", 0.25)[:100, :],
        _duplicate_filling_a_hole,
        lambda: sp.csr_matrix((6, 6)),
        lambda: sp.csr_matrix((0, 0)),
        lambda: suite.build("crystm02", 0.25).astype(np.float32),
    ],
    ids=["ex15", "rectangular", "duplicates", "empty", "zero-by-zero", "float32"],
)
def test_matrices_that_stay_on_csr(make):
    a = make()
    kernel, operands = spmv_kernel(a)
    assert kernel.__name__ != "dia_matvec"
    m, n = a.shape
    v = np.random.default_rng(1).standard_normal(n)
    want = np.asarray(a @ v, dtype=np.float64)
    _assert_bitwise(_product(kernel, operands, v, m), want)


def test_choosing_a_kernel_warns_of_nothing():
    """nd24k has 199 diagonals: ``todia()`` would warn that it is
    inefficient; the one-scatter build does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in suite.names():
            spmv_kernel(_dmat(suite.build(name, 1.0)).a)


def test_the_kernel_is_built_on_first_use_not_in_warm():
    dmat = _dmat(suite.build("wathen100", 0.25)).warm()
    assert "spmv" not in vars(dmat)
    assert dmat.spmv is dmat.spmv


def test_the_differential_grid_gates_both_kernels():
    """``tests/core/test_backend_equivalence.py`` compares the batched
    span loop with the loop backend, which runs CSR, and with the
    per-iteration oracle: its banded matrix takes DIA there, so that
    three-way grid gates DIA against CSR, and its other two take CSR."""
    from tests.differential import MATRICES

    kernels = {name: spmv_kernel(make())[0].__name__ for name, make in MATRICES.items()}
    assert kernels == {
        "banded": "dia_matvec",
        "irregular": "csr_matvec",
        "stencil": "csr_matvec",
    }
