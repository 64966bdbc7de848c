"""Execution backends for the CG kernels (DESIGN.md §5j).

A *backend* decides **how** the numerics of one CG span are executed; it
never changes **what** is computed.  Two backends ship:

``loop``
    The paper-faithful distributed reference: every iteration walks the
    ranks one at a time in pure Python — per-rank halo gather
    (``x[cols]`` over the packed block's needed columns), per-rank local
    SpMV on the column-compressed ``A_{p_i,:}`` block, per-rank slice
    axpys — with only the dot products and residual norms computed
    globally (the allreduced scalar is identical on every rank, so one
    global reduction *is* the distributed reduction).  Wall time scales
    linearly with rank count: ~5·nranks numpy calls per iteration.

``batched``
    The default.  All ranks' partitions are contiguous segments of the
    same global arrays (block-row partitioning stacks them by
    construction), so the whole fleet executes each iteration as one
    global SpMV + axpy sequence — nine numpy calls per iteration (ten
    with Jacobi) regardless of rank count.  The SpMV is scipy's
    ``dia_matvec`` on a matrix whose occupied diagonals carry little
    padding and ``csr_matvec`` otherwise (:func:`spmv_kernel`): the same
    products summed in the same order either way.

**Why the two are bit-identical** (the differential harness in
``tests/core/test_backend_equivalence.py`` pins this):

* Per-rank SpMV: ``A_{p_i,:}`` keeps each row's nonzeros in the same
  storage order as the global CSR matrix (``sort_indices()`` ran at
  construction, and column packing is order-preserving), so the per-row
  accumulation performs the identical floating-point sum in the
  identical order as the global kernel restricted to those rows.
* Slice axpys: elementwise updates on ``x[sl]`` produce the same bits
  as the global update — element ``i`` never sees element ``j``.
* Reductions: both backends make the same global BLAS ``dot`` call —
  ``np.dot``, ``ndarray.dot`` and ``np.linalg.norm`` (``sqrt`` of
  ``x.dot(x)``) all reach it.  A rank-partial partial-sum tree would
  accumulate in a different order — that is the one place the
  documented tolerance policy (§5j) would downgrade a field from
  *bitwise* to *ulp-bounded*.

Backends preserve the ``step_span`` contract exactly — same residual
history, same early exit on convergence, same stop-before-breakdown —
so every :class:`~repro.core.recovery.base.RecoveryScheme`, the fault
injector, telemetry, and the closed-form time/energy replay work
unchanged on either backend.
"""

from __future__ import annotations

import math

import numpy as np

#: The backend used when none is configured.
DEFAULT_BACKEND = "batched"

#: Preconditioners the CG kernels accept besides ``None`` (plain CG).
PRECONDITIONERS = ("jacobi",)

#: A matrix runs DIA when its occupied diagonals hold at most
#: ``nnz // DIA_MAX_PADDING`` slots beyond its entries (:func:`spmv_kernel`).
DIA_MAX_PADDING = 8


def csr_kernel(a):
    """``(kernel, operands)``: after ``out.fill(0.0)``, the call
    ``kernel(*operands, v, out)`` writes the product ``a @ v`` into
    ``out``, bit for bit.

    For a float64 CSR matrix, ``a @ v`` is exactly ``zeros(m)`` plus
    scipy's ``csr_matvec`` kernel (scipy's ``_matmul_vector``), which
    adds each row's sum onto ``out``; ``kernel`` is that kernel and
    ``operands`` its ``(m, n, indptr, indices, data)``, so a hot loop
    calls it with no Python frame between.  Any other matrix gets a
    ``kernel`` that assigns ``a @ v`` and no operands.
    """
    try:  # scipy's raw CSR mat-vec kernel; bypasses the spmatrix dispatch
        from scipy.sparse._sparsetools import csr_matvec as kernel
    except ImportError:  # pragma: no cover - older scipy
        kernel = None
    if kernel is None or a.format != "csr" or a.dtype != np.float64:

        def assign(v: np.ndarray, out: np.ndarray) -> None:
            out[:] = a @ v

        return assign, ()
    m, n = a.shape
    return kernel, (m, n, a.indptr, a.indices, a.data)


def spmv_kernel(a):
    """``(kernel, operands)`` with :func:`csr_kernel`'s call shape and
    contract, picked from ``a``'s structure: scipy's ``dia_matvec`` when
    it computes CSR's product on every finite input, :func:`csr_kernel`
    otherwise.

    ``a`` runs DIA when it is a square float64 CSR matrix in canonical
    form (sorted, no duplicates) whose occupied diagonals carry little
    padding: the occupied offsets ``k`` give ``sum(n - |k|)`` slots, at
    most ``nnz // DIA_MAX_PADDING`` of them holding no entry.  Then
    ``dia_matvec``, with the offsets ascending, adds each row's products
    ``a_ij * v_j`` onto ``out[i]`` in ascending ``j``, the same IEEE
    operations in the same order as ``csr_matvec``'s running sum over
    the sorted row, plus ``0 * v_j`` at each padded slot (DESIGN.md
    §5j).  On a finite ``v_j`` that product is a zero, and adding a zero
    leaves the running sum's bits alone: the sum starts at ``+0.0`` and
    under round-to-nearest is ``-0.0`` only when both operands are, so
    it is never ``-0.0``.  Where ``v_j`` is NaN or infinite the padded
    product is NaN and the row may differ from CSR's; but then the term
    ``v_j * q_j`` of ``v·q`` is not finite whatever ``q_j`` is, and the
    span loop and the horizon probe read their ``q = A p`` first through
    ``p·q``: a breakdown under both kernels, before ``q`` is used.

    One thing IEEE leaves to the compiled add: when a row's running sum
    and its next product are two different NaNs (``inf - inf`` meeting
    a NaN input), the two kernels keep different ones.  The row is NaN
    either way, so the same breakdown follows.
    """
    try:  # scipy's raw DIA mat-vec kernel
        from scipy.sparse._sparsetools import dia_matvec
    except ImportError:  # pragma: no cover - older scipy
        return csr_kernel(a)
    m, n = a.shape
    if (
        a.format != "csr"
        or a.dtype != np.float64
        or m != n
        or a.nnz == 0
        or not a.has_canonical_format
    ):
        return csr_kernel(a)
    indptr, indices = a.indptr, a.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    shifted = indices - rows + (n - 1)  # each entry's offset, plus n - 1
    occupied = np.flatnonzero(np.bincount(shifted, minlength=2 * n - 1))
    offsets = occupied - (n - 1)
    if int((n - np.abs(offsets)).sum()) - a.nnz > a.nnz // DIA_MAX_PADDING:
        return csr_kernel(a)
    # One scatter from the CSR arrays, no COO temporaries: DIA keeps
    # entry (i, j) of diagonal d at diags[d, j].
    diags = np.zeros((offsets.size, n))
    diags[np.searchsorted(occupied, shifted), indices] = a.data
    return dia_matvec, (n, n, offsets.size, n, offsets.astype(indices.dtype), diags)


def csr_matvec(a):
    """``apply(v, out=None)``: the product ``a @ v``, bit for bit
    (:func:`csr_kernel`).  With ``out`` it writes into that buffer
    instead of a fresh one."""
    kernel, operands = csr_kernel(a)
    m = a.shape[0]

    def apply(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros(m)
        else:
            out.fill(0.0)
        kernel(*operands, v, out)
        return out

    return apply


def backend_names() -> list[str]:
    """The backend names :func:`make_backend` accepts, sorted."""
    return sorted(_BACKENDS)


def make_backend(name: str, cg) -> "SolverBackend":
    """Instantiate the named backend bound to a ``DistributedCG``."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r}; known: {known}") from None
    return cls(cg)


class SolverBackend:
    """One execution strategy for the CG kernels, bound to a stepper.

    Subclasses implement :meth:`matvec` (the distributed SpMV, used by
    the single-step path and residual re-anchoring on restart) and
    :meth:`step_span` (the fused multi-iteration kernel).  Both must be
    bit-identical to the reference semantics documented on
    :meth:`repro.core.cg.DistributedCG.step_span`.
    """

    name: str = ""

    def __init__(self, cg) -> None:
        self.cg = cg

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The distributed SpMV ``A @ x`` under this backend."""
        raise NotImplementedError

    def step_span(self, max_steps: int) -> tuple[int, bool]:
        """Run up to ``max_steps`` iterations; ``(taken, breakdown)``."""
        raise NotImplementedError


class BatchedBackend(SolverBackend):
    """All ranks at once: one vectorized kernel sequence per iteration."""

    name = "batched"

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.cg.dmat.matvec(x)

    def step_span(self, max_steps: int) -> tuple[int, bool]:
        cg = self.cg
        if max_steps <= 0:
            return 0, False
        st = cg.state
        minv = cg._minv
        bnorm = cg._bnorm
        tol = cg.tol
        x, r, p, rz = st.x, st.r, st.p, st.rz
        n = cg.dmat.n
        kernel, operands = cg.dmat.spmv
        hist = np.empty(max_steps, dtype=np.float64)
        isfinite = math.isfinite
        sqrt = math.sqrt
        multiply = np.multiply
        add = np.add
        subtract = np.subtract
        # Scratch buffers reused across iterations.  Every elementwise
        # update below matches the out-of-place expression in
        # :meth:`DistributedCG.step` value for value:
        # ``multiply(pq, alpha, out=step)`` computes exactly ``alpha * p``
        # and ``alpha * q`` (the rows of ``pq``), and the subsequent
        # in-place add/subtract applies them in the same order, so no
        # bits change — only the per-iteration allocations disappear.
        # ``p`` is a fresh array (row 0 of ``pq``, a copy of the caller's)
        # so the in-place update never mutates a caller-visible vector
        # mid-span.  The loop pays no numpy dispatch it can avoid
        # (DESIGN.md §5j): ``p`` and ``q`` are scaled in one ``multiply``,
        # ``alpha`` and ``beta`` reach the ufuncs through the 0-d float64
        # ``scalar``, the dots are ``ndarray.dot`` (the BLAS call
        # ``np.dot`` makes), the Jacobi residual norm is
        # ``sqrt(r.dot(r))`` (what ``np.linalg.norm`` computes), and the
        # SpMV is the matrix's kernel (DIA or CSR) called inline.
        pq = np.empty((2, n))
        pq[0] = p
        p, q = pq
        step = np.empty((2, n))
        p_step, q_step = step
        z = r if minv is None else np.empty(n)
        scalar = np.empty(())
        p_dot, r_dot = p.dot, r.dot
        fill = q.fill
        taken = 0
        breakdown = False
        for _ in range(max_steps):
            fill(0.0)
            kernel(*operands, p, q)
            dot = float(p_dot(q))
            if dot <= 0 or not isfinite(dot):
                breakdown = True
                break
            scalar[()] = rz / dot
            multiply(pq, scalar, out=step)
            add(x, p_step, out=x)
            subtract(r, q_step, out=r)
            if minv is not None:
                multiply(r, minv, out=z)
            rz_new = float(r_dot(z))
            scalar[()] = rz_new / rz if rz > 0 else 0.0
            multiply(p, scalar, out=p_step)
            add(z, p_step, out=p)
            rz = rz_new
            if minv is None:
                rel = sqrt(max(rz, 0.0)) / bnorm
            else:
                rel = sqrt(r_dot(r)) / bnorm
            hist[taken] = rel
            taken += 1
            if rel <= tol:
                break
        st.p = p
        st.rz = rz
        st.iteration += taken
        cg.residual_history.extend(hist[:taken].tolist())
        return taken, breakdown


class LoopBackend(SolverBackend):
    """Rank-by-rank reference execution over halo-packed blocks."""

    name = "loop"

    def _rank_pieces(self):
        """``(slice, halo columns, local SpMV)`` per rank; the packed
        blocks are cached on the matrix.

        A rank's local SpMV is a halo gather ``x[cols]`` then its packed
        CSR block's product, written into the rank's contiguous rows of
        the global product vector.  Bit-identical to the global kernel
        restricted to those rows: the packed block preserves each row's
        nonzero storage order, so the per-row sums accumulate the same
        values in the same order.
        """
        dmat = self.cg.dmat
        part = dmat.partition
        out = []
        for rank in range(dmat.nranks):
            pb = dmat.packed_block(rank)
            out.append((part.slice_of(rank), pb.cols, csr_matvec(pb.mat)))
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        q = np.zeros(self.cg.dmat.n)
        for sl, cols, spmv in self._rank_pieces():
            spmv(x[cols], q[sl])
        return q

    def step_span(self, max_steps: int) -> tuple[int, bool]:
        cg = self.cg
        if max_steps <= 0:
            return 0, False
        st = cg.state
        minv = cg._minv
        bnorm = cg._bnorm
        tol = cg.tol
        n = cg.dmat.n
        pieces = self._rank_pieces()
        x, r, p, rz = st.x, st.r, st.p, st.rz
        hist = np.empty(max_steps, dtype=np.float64)
        isfinite = math.isfinite
        sqrt = math.sqrt
        norm = np.linalg.norm
        dot = np.dot
        multiply = np.multiply
        add = np.add
        subtract = np.subtract
        q = np.empty(n)
        tmp = np.empty(n)
        z = r if minv is None else np.empty(n)
        p = p.copy()
        taken = 0
        breakdown = False
        for _ in range(max_steps):
            # Halo exchange + local SpMV, one rank at a time: each rank
            # gathers the x entries its off-diagonal columns need and
            # multiplies its packed block into its own rows of q.
            for sl, cols, spmv in pieces:
                spmv(p[cols], q[sl])
            # p·q allreduce: the reduced scalar is identical on every
            # rank, so the global dot is the distributed reduction.
            pq = float(dot(p, q))
            if pq <= 0 or not isfinite(pq):
                breakdown = True
                break
            alpha = rz / pq
            for sl, _, _ in pieces:
                ts = tmp[sl]
                multiply(p[sl], alpha, out=ts)
                add(x[sl], ts, out=x[sl])
                multiply(q[sl], alpha, out=ts)
                subtract(r[sl], ts, out=r[sl])
                if minv is not None:
                    multiply(r[sl], minv[sl], out=z[sl])
            rz_new = float(dot(r, z))
            beta = rz_new / rz if rz > 0 else 0.0
            for sl, _, _ in pieces:
                ts = tmp[sl]
                multiply(p[sl], beta, out=ts)
                add(z[sl], ts, out=p[sl])
            rz = rz_new
            if minv is None:
                rel = sqrt(max(rz, 0.0)) / bnorm
            else:
                rel = float(norm(r)) / bnorm
            hist[taken] = rel
            taken += 1
            if rel <= tol:
                break
        st.p = p
        st.rz = rz
        st.iteration += taken
        cg.residual_history.extend(hist[:taken].tolist())
        return taken, breakdown


#: Every backend by its name.
_BACKENDS: dict[str, type[SolverBackend]] = {
    cls.name: cls for cls in (BatchedBackend, LoopBackend)
}
