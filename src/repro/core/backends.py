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
    vectorized ``csr_matvec`` + axpy sequence — ~8 numpy calls per
    iteration regardless of rank count.

**Why the two are bit-identical** (the differential harness in
``tests/core/test_backend_equivalence.py`` pins this):

* Per-rank SpMV: ``A_{p_i,:}`` keeps each row's nonzeros in the same
  storage order as the global CSR matrix (``sort_indices()`` ran at
  construction, and column packing is order-preserving), so the per-row
  accumulation performs the identical floating-point sum in the
  identical order as the global kernel restricted to those rows.
* Slice axpys: elementwise updates on ``x[sl]`` produce the same bits
  as the global update — element ``i`` never sees element ``j``.
* Reductions: both backends call the same global ``np.dot`` /
  ``np.linalg.norm``.  A rank-partial partial-sum tree would accumulate
  in a different order — that is the one place the documented tolerance
  policy (§5j) would downgrade a field from *bitwise* to *ulp-bounded*.

Backends preserve the ``step_span`` contract exactly — same residual
history, same early exit on convergence, same stop-before-breakdown —
so every :class:`~repro.core.recovery.base.RecoveryScheme`, the fault
injector, telemetry, and the closed-form time/energy replay work
unchanged on either backend.
"""

from __future__ import annotations

import math

import numpy as np

try:  # scipy's raw CSR mat-vec kernel; bypasses the spmatrix dispatch
    from scipy.sparse import _sparsetools as _spt

    _csr_matvec = _spt.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - older scipy
    _csr_matvec = None

#: The backend used when none is configured.
DEFAULT_BACKEND = "batched"


def csr_matvec(a):
    """``apply(v, out=None)``: the product ``a @ v``, bit for bit.

    For a float64 CSR matrix, ``a @ v`` is exactly ``zeros(m)`` plus
    scipy's ``csr_matvec`` kernel (scipy's ``_matmul_vector``), so
    ``apply`` calls the kernel directly and skips the spmatrix dispatch.
    With ``out`` it writes into that buffer instead of a fresh one.  Any
    other matrix falls back to ``a @ v``.
    """
    if _csr_matvec is None or a.format != "csr" or a.dtype != np.float64:

        def apply(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                return a @ v
            out[:] = a @ v
            return out

        return apply
    m, n = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data

    def apply(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros(m)
        else:
            out.fill(0.0)
        _csr_matvec(m, n, indptr, indices, data, v, out)
        return out

    return apply

_REGISTRY: dict[str, type["SolverBackend"]] = {}


def register_backend(cls: type["SolverBackend"]) -> type["SolverBackend"]:
    """Class decorator: add a backend to the registry under ``cls.name``."""
    if not cls.name:
        raise ValueError("backend class needs a non-empty name")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def make_backend(name: str, cg) -> "SolverBackend":
    """Instantiate the named backend bound to a ``DistributedCG``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
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


@register_backend
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
        a = cg.dmat.a
        x, r, p, rz = st.x, st.r, st.p, st.rz
        n = a.shape[0]
        spmv = csr_matvec(a)
        hist = np.empty(max_steps, dtype=np.float64)
        isfinite = math.isfinite
        sqrt = math.sqrt
        norm = np.linalg.norm
        dot = np.dot
        multiply = np.multiply
        add = np.add
        subtract = np.subtract
        # Scratch buffers reused across iterations.  Every elementwise
        # update below matches the out-of-place expression in
        # :meth:`DistributedCG.step` value for value:
        # ``multiply(p, alpha, out=tmp)`` computes exactly ``alpha * p``,
        # and the subsequent in-place add/subtract applies it in the same
        # order, so no bits change — only the per-iteration allocations
        # disappear.  ``p`` is (re)assigned to a fresh array on entry so
        # the in-place update never mutates a caller-visible vector
        # mid-span.
        q = np.empty(n)
        tmp = np.empty(n)
        p = p.copy()
        taken = 0
        breakdown = False
        for _ in range(max_steps):
            spmv(p, q)
            pq = float(dot(p, q))
            if pq <= 0 or not isfinite(pq):
                breakdown = True
                break
            alpha = rz / pq
            multiply(p, alpha, out=tmp)
            add(x, tmp, out=x)
            multiply(q, alpha, out=tmp)
            subtract(r, tmp, out=r)
            z = r * minv if minv is not None else r
            rz_new = float(dot(r, z))
            beta = rz_new / rz if rz > 0 else 0.0
            multiply(p, beta, out=tmp)
            add(z, tmp, out=p)
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


@register_backend
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
