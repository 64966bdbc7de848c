"""The span loop's SpMV kernel is picked from structure, and is exact.

:attr:`DistributedMatrix.spmv` (``core.backends.spmv_kernel``) runs
scipy's ``dia_matvec`` on a matrix whose occupied diagonals carry little
padding, and ``csr_matvec`` otherwise.  Both kernels add the same
products onto the same running sums in the same order; a padded slot
adds ``0 * v_j`` besides, a zero that leaves the sum's bits alone where
``v_j`` is finite and a NaN where it is not.  So on a full-diagonal
matrix the product is ``a @ v`` bit for bit on every input, and on a
padded one on every finite input, while a non-finite ``p`` breaks the
span loop down before it reads ``q`` under either kernel.  Pinned here:
which kernel every suite matrix gets, the bits of the product on
vectors holding NaN, infinities, signed zeros and subnormals, the span
loop's breakdown on a padded matrix, the matrices that must stay on
CSR, and that choosing warns of nothing.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import csr_kernel, spmv_kernel
from repro.core.cg import DistributedCG
from repro.matrices import suite
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition

#: The suite matrices whose occupied diagonals are all full, at both
#: scales below.
FULL_DIAGONALS = {
    "bcsstk06", "msc01050", "bcsstk16", "Kuu", "t2dahe", "crystm02",
    "wathen100", "nd24k",
}
#: The suite matrices whose occupied diagonals hold a few padded slots:
#: stencil5's +-1 diagonals hold zeros at the grid rows' ends.
PADDED_DIAGONALS = {"stencil5"}
#: Every suite matrix on DIA; every other one stays on CSR.
DIA_MATRICES = FULL_DIAGONALS | PADDED_DIAGONALS
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


@pytest.mark.parametrize("name", sorted(FULL_DIAGONALS))
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


def _padded_slots(a) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the slots ``a``'s occupied diagonals hold
    beyond its entries."""
    dia = a.todia()
    n = a.shape[0]
    rows, cols = [], []
    for k in dia.offsets:
        i = np.arange(max(0, -k), min(n, n - k))
        rows.append(i)
        cols.append(i + k)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    entries = a.tocoo()
    stored = np.isin(rows * n + cols, entries.row.astype(np.int64) * n + entries.col)
    return rows[~stored], cols[~stored]


@pytest.mark.parametrize("scale", SCALES)
def test_padded_dia_product_is_the_csr_product_on_finite_inputs(scale):
    a = _dmat(suite.build("stencil5", scale)).a
    kernel, operands = spmv_kernel(a)
    assert kernel.__name__ == "dia_matvec"
    n = a.shape[0]
    assert _padded_slots(a)[0].size > 0  # the padding is there to show
    vectors = _vectors(n)
    finite = {
        label: vectors[label]
        for label in ("signed zeros and subnormals", "all negative zero")
    }
    finite["all positive zero"] = np.zeros(n)
    tiny = np.full(n, 5e-324)
    tiny[1::2] = -5e-324  # products round to signed zeros everywhere
    finite["smallest subnormals"] = tiny
    for label, v in finite.items():
        assert np.isfinite(v).all()
        _assert_bitwise(_product(kernel, operands, v), a @ v, label)


def test_stencil5_padded_product_differs_only_where_p_is_not_finite():
    """A padded slot adds ``0 * v_j``: NaN where ``v_j`` is NaN or
    infinite.  The DIA product differs from CSR's somewhere, only in
    rows that read such a ``v_j`` through a padded slot, and is NaN
    there."""
    a = _dmat(suite.build("stencil5", 0.25)).a
    kernel, operands = spmv_kernel(a)
    assert kernel.__name__ == "dia_matvec"
    n = a.shape[0]
    pad_rows, pad_cols = _padded_slots(a)
    nx = int(round(n**0.5))
    for label, v in _vectors(n).items():
        v = v.copy()
        v[::nx] = np.nan  # the first point of every grid row
        # the last point of the grid row before reads it through a padded slot
        got, want = _product(kernel, operands, v), a @ v
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        reads = np.unique(pad_rows[~np.isfinite(v[pad_cols])])
        assert differ.size > 0, label
        assert np.isin(differ, reads).all(), label
        assert np.isnan(got[differ]).all(), label


#: One non-finite entry, or two, in ``p``; each breaks the span loop down.
NON_FINITE = {
    "NaN": [np.nan],
    "+inf": [np.inf],
    "-inf": [-np.inf],
    "NaN and inf": [np.nan, np.inf],
}


def _cg_state(cg: DistributedCG) -> tuple:
    st = cg.state
    return (
        st.x.view(np.uint64).tobytes(),
        st.r.view(np.uint64).tobytes(),
        st.p.view(np.uint64).tobytes(),
        float(st.rz).hex(),
        st.iteration,
        np.asarray(cg.residual_history).view(np.uint64).tobytes(),
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
@pytest.mark.parametrize("entries", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_a_non_finite_p_breaks_the_padded_span_loop_down_as_on_csr(entries):
    """``step_span`` on stencil5 with ``p`` holding non-finite entries
    at grid-row ends (where a padded slot reads them) stops before its
    first iteration and leaves ``x``, ``r``, ``p``, ``rz`` and the
    history bitwise as a CSR run and the loop backend leave them."""
    a = suite.build("stencil5", 0.25)
    n = a.shape[0]
    nx = int(round(n**0.5))
    b = a @ np.random.default_rng(4).standard_normal(n)
    on_csr = _dmat(a)
    vars(on_csr)["spmv"] = csr_kernel(on_csr.a)  # the cached kernel, replaced
    runs = {
        "dia": DistributedCG(_dmat(a), b),
        "csr": DistributedCG(on_csr, b),
        "loop": DistributedCG(_dmat(a), b, backend="loop"),
    }
    assert runs["dia"].dmat.spmv[0].__name__ == "dia_matvec"
    for cg in runs.values():
        assert cg.step_span(3) == (3, False)  # a state off the start
        for k, value in enumerate(entries):  # ends of grid rows 0, 2
            cg.state.p[(2 * k + 1) * nx - 1] = value
    states = {}
    for name, cg in runs.items():
        assert cg.step_span(5) == (0, True), name
        states[name] = _cg_state(cg)
    assert states["dia"] == states["csr"] == states["loop"]


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
    per-iteration oracle: its banded matrix takes DIA there and its
    stencil padded DIA, so that three-way grid gates both against CSR,
    and its irregular matrix takes CSR."""
    from tests.differential import MATRICES

    kernels = {name: spmv_kernel(make())[0].__name__ for name, make in MATRICES.items()}
    assert kernels == {
        "banded": "dia_matvec",
        "irregular": "csr_matvec",
        "stencil": "dia_matvec",
    }
