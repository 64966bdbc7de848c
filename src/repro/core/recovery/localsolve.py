"""Local solvers used by interpolation-based recovery (Section 4.1).

The optimized LI/LSI schemes solve their construction systems *locally*
on the failed process with CG, instead of the exact sequential LU (LI) or
parallel QR (LSI) of prior work [2].  This module hosts:

* :func:`local_cg` — a matvec-driven CG with iteration counting, used for
  both Eq. 19 (LI: ``A_{p_i,p_i} x = y``) and Eq. 21 (LSI: the normal
  equations operator ``A_{p_i,:} A_{p_i,:}^T``);
* :func:`lu_solve_with_stats` — the exact sparse-LU baseline with its
  fill statistics, from which the factorization cost is estimated;
* :func:`exact_least_squares` — the exact least-squares baseline standing
  in for the parallel sparse QR of [2] (SciPy has no sparse QR; an
  exhaustively converged LSQR produces the same minimiser, and its real
  iteration count drives the parallel cost model — see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class LocalSolveStats:
    """What a construction solve did, for the cost model."""

    iterations: int
    relative_residual: float
    flops: float


def local_cg(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    *,
    tol: float,
    max_iters: int,
    flops_per_apply: float,
    jacobi_diag: np.ndarray | None = None,
    dense_flops_per_row: float = 10.0,
) -> tuple[np.ndarray, LocalSolveStats]:
    """(Preconditioned) CG on an SPD operator given as a matvec callable.

    Stops at relative residual ``tol`` or ``max_iters``.  ``flops`` in the
    returned stats is the cost-model input: iterations times one operator
    application plus the BLAS-1 work.

    ``jacobi_diag``, when given, enables Jacobi preconditioning with that
    operator diagonal — essential for the LSI normal equations, whose
    conditioning is the square of the row block's and whose rows can be
    badly scaled on irregular matrices.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.size
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), LocalSolveStats(0, 0.0, 0.0)
    if jacobi_diag is not None:
        jacobi_diag = np.asarray(jacobi_diag, dtype=np.float64)
        if jacobi_diag.shape != (n,):
            raise ValueError("preconditioner diagonal does not match rhs")
        if np.any(jacobi_diag <= 0):
            raise ValueError("Jacobi diagonal must be positive")
        minv = 1.0 / jacobi_diag
    else:
        minv = None
    # The updates run in place through ``out=`` buffers, and the scalar
    # maths on Python floats: ``multiply(p, alpha, out=tmp)`` then an
    # in-place add is exactly ``x += alpha * p``, ``ndarray.dot`` is the
    # BLAS call ``@`` makes, and ``math.sqrt`` rounds as ``np.sqrt`` does,
    # so every bit matches the allocating form.
    multiply, add, subtract = np.multiply, np.add, np.subtract
    sqrt, isfinite = math.sqrt, math.isfinite
    x = np.zeros(n)
    r = rhs.copy()
    z = r * minv if minv is not None else r
    p = z.copy()
    tmp = np.empty(n)
    rz = float(r.dot(z))
    rr = float(r.dot(r))
    it = 0
    while sqrt(rr) / rhs_norm > tol and it < max_iters:
        q = matvec(p)
        pq = float(p.dot(q))
        if pq <= 0 or not isfinite(pq):
            break  # operator numerically not SPD; return best effort
        alpha = rz / pq
        multiply(p, alpha, out=tmp)
        add(x, tmp, out=x)
        multiply(q, alpha, out=tmp)
        subtract(r, tmp, out=r)
        if minv is not None:
            multiply(r, minv, out=z)
        rz_new = float(r.dot(z))
        beta = rz_new / rz if rz > 0 else 0.0
        multiply(p, beta, out=tmp)
        add(z, tmp, out=p)
        rz = rz_new
        rr = float(r.dot(r))
        it += 1
    rel = sqrt(max(rr, 0.0)) / rhs_norm
    flops = it * (flops_per_apply + dense_flops_per_row * n)
    return x, LocalSolveStats(it, rel, flops)


@dataclass(frozen=True)
class LuStats:
    """Fill statistics of a sparse LU factorization."""

    n: int
    factor_nnz: int

    @property
    def effective_bandwidth(self) -> float:
        """Semi-bandwidth of a banded matrix with the same fill."""
        return max(1.0, self.factor_nnz / (2.0 * self.n))

    @property
    def factor_flops(self) -> float:
        """Banded-equivalent factorization cost: 2 n w^2 [24]."""
        return 2.0 * self.n * self.effective_bandwidth**2

    @property
    def solve_flops(self) -> float:
        """Two triangular solves over the factors."""
        return 4.0 * self.factor_nnz


def lu_solve_with_stats(a: sp.spmatrix, rhs: np.ndarray) -> tuple[np.ndarray, LuStats]:
    """Exact solve of ``a x = rhs`` via sparse LU, with fill statistics.

    This is the prior-work LI construction [2]: exact, memory-hungry
    (fill), and priced by the banded-equivalent flop count.
    """
    # imported on use: ~0.1 s (scipy.linalg with it) that only the exact
    # baselines need, and every CLI launch would otherwise pay
    from scipy.sparse.linalg import splu

    a = sp.csc_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    lu = splu(a)
    x = lu.solve(np.asarray(rhs, dtype=np.float64))
    stats = LuStats(n=a.shape[0], factor_nnz=int(lu.L.nnz + lu.U.nnz))
    return x, stats


@dataclass(frozen=True)
class LsqrStats:
    """Work performed by the exact least-squares baseline."""

    iterations: int
    residual_norm: float


def exact_least_squares(
    a: sp.spmatrix | sp.linalg.LinearOperator,
    rhs: np.ndarray,
    *,
    n_cols: int | None = None,
) -> tuple[np.ndarray, LsqrStats]:
    """Exact (machine-precision) least-squares minimiser of ``|a x - rhs|``.

    Stands in for the parallel sparse QR of [2]; LSQR run to machine
    precision converges to the same minimiser, and its iteration count is
    the communication-round count of the parallel baseline.
    """
    from scipy.sparse.linalg import lsqr  # on use, as in lu_solve_with_stats

    result = lsqr(a, np.asarray(rhs, dtype=np.float64), atol=1e-14, btol=1e-14,
                  iter_lim=None)
    x, istop, itn, r1norm = result[0], result[1], result[2], result[3]
    return x, LsqrStats(iterations=int(itn), residual_norm=float(r1norm))
