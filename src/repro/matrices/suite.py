"""The benchmark matrix suite, mirroring Table 3.

Each entry records the paper's SuiteSparse properties (#rows, nnz/row,
problem kind, fault-free iterations at tol 1e-12) next to the synthetic
stand-in we generate.  Stand-ins are scaled down (~x10 in rows for the
large problems, iteration counts in the low thousands instead of tens of
thousands) so the full suite runs in minutes; ``build(name, scale=...)``
re-scales toward paper size when desired.

The stand-ins preserve what the paper's conclusions depend on:

* **nnz/row** — drives SpMV cost, halo volume, and reconstruction cost;
* **structure** — banded/stencil (regular) vs random (irregular), which
  controls how accurate LI/LSI's interpolants are (Section 5.2);
* **convergence class** — fast (hundreds of iterations), medium
  (~1k), slow (several k), tuned via diagonal dominance.

Our experiments use tol 1e-8 instead of the paper's 1e-12 because the
stand-ins' condition numbers are scaled down along with their iteration
counts; normalized-to-fault-free results are insensitive to this choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp


@dataclass(frozen=True)
class MatrixSpec:
    """One row of Table 3 plus the recipe for its synthetic stand-in."""

    name: str
    kind: str                     # paper's "Problem Kind" column
    paper_rows: int
    paper_nnz_per_row: int
    paper_iters: int              # paper's fault-free #Iters at tol 1e-12
    generator: Literal["banded", "irregular", "stencil"]
    rows: int                     # stand-in size at scale=1
    nnz_per_row: int              # stand-in density target
    dominance: float = 1e-3
    scaling_spread: float = 0.0
    value_spread: float = 0.0
    longrange_scale: float = 0.3
    seed: int = 0
    #: Calibrated fault-free CG iterations of the stand-in at scale=1
    #: (tol 1e-8): a measurement of what the recipe above builds, so it
    #: stays out of ``repr`` and with it out of the problem cache's keys.
    iters: int = field(default=0, repr=False)

    def build(self, scale: float = 1.0) -> sp.csr_matrix:
        """Generate the stand-in matrix.

        ``scale`` multiplies the row count (the 5-point stencil scales its
        grid edge by ``sqrt(scale)`` so rows scale by ``scale``).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        # on use: listing the suite's names must not load scipy.sparse
        from repro.matrices.generators import banded_spd, irregular_spd, stencil_5pt

        n = max(16, int(round(self.rows * scale)))
        if self.generator == "banded":
            return banded_spd(
                n,
                self.nnz_per_row,
                dominance=self.dominance,
                scaling_spread=self.scaling_spread,
                seed=self.seed,
            )
        if self.generator == "irregular":
            return irregular_spd(
                n,
                self.nnz_per_row,
                dominance=self.dominance,
                scaling_spread=self.scaling_spread,
                seed=self.seed,
                value_spread=self.value_spread,
                longrange_scale=self.longrange_scale,
            )
        if self.generator == "stencil":
            nx = max(4, int(round((self.rows * scale) ** 0.5)))
            return stencil_5pt(nx)
        raise ValueError(f"unknown generator {self.generator!r}")

    @property
    def is_regular(self) -> bool:
        return self.generator in ("banded", "stencil")


#: Table 3, in paper order.  ``dominance`` / ``scaling_spread`` values
#: are calibrated (bisection on measured fault-free CG iterations at tol
#: 1e-8) so each stand-in lands in its matrix's convergence class;
#: ``iters`` records the calibrated iteration count (the stand-in
#: analogue of Table 3's #Iters column).
SUITE: dict[str, MatrixSpec] = {
    s.name: s
    for s in [
        # The scaling_spread values also encode each matrix's recovery
        # differentiation class: the paper reports LI/LSI/CR ~ F0/FI for
        # bcsstk06-like matrices (here: low spread) but much better for
        # ex15/t2dahe-like ones (here: high spread), because heterogeneous
        # row scales make inaccurate fills far more expensive to re-converge.
        MatrixSpec("bcsstk06", "structural", 420, 19, 4476,
                   "banded", rows=6031, nnz_per_row=19,
                   dominance=1e-6, scaling_spread=0.25, seed=1, iters=1960),
        MatrixSpec("msc01050", "structural", 1050, 25, 35765,
                   "banded", rows=1672, nnz_per_row=25,
                   dominance=1e-6, scaling_spread=0.90, seed=2, iters=4710),
        MatrixSpec("ex10hs", "CFD", 2548, 22, 3217,
                   "irregular", rows=2548, nnz_per_row=22,
                   dominance=1e-6, scaling_spread=0.90,
                   value_spread=0.6, longrange_scale=0.05, seed=3, iters=1440),
        MatrixSpec("bcsstk16", "structural", 4884, 59, 553,
                   "banded", rows=1414, nnz_per_row=59,
                   dominance=1e-6, scaling_spread=0.60, seed=4, iters=590),
        MatrixSpec("ex15", "CFD", 6867, 17, 1074,
                   "irregular", rows=1262, nnz_per_row=17,
                   dominance=1e-6, scaling_spread=0.90,
                   value_spread=0.5, longrange_scale=0.2, seed=5, iters=940),
        MatrixSpec("Kuu", "structural", 7102, 24, 849,
                   "banded", rows=660, nnz_per_row=24,
                   dominance=1e-6, scaling_spread=0.70, seed=6, iters=790),
        MatrixSpec("t2dahe", "model reduction", 11445, 15, 82098,
                   "banded", rows=1532, nnz_per_row=15,
                   dominance=1e-6, scaling_spread=1.00, seed=7, iters=5640),
        MatrixSpec("crystm02", "materials", 13965, 23, 1154,
                   "banded", rows=2438, nnz_per_row=23,
                   dominance=1e-6, scaling_spread=0.60, seed=8, iters=2220),
        MatrixSpec("wathen100", "random 2D/3D", 30401, 16, 355,
                   "banded", rows=4000, nnz_per_row=16,
                   dominance=3.1171e-4, scaling_spread=0.0, seed=9, iters=384),
        MatrixSpec("cvxbqp1", "optimization", 50000, 7, 11863,
                   "irregular", rows=7625, nnz_per_row=7,
                   dominance=1e-6, scaling_spread=0.90,
                   value_spread=0.3, longrange_scale=0.2, seed=10, iters=2690),
        MatrixSpec("Andrews", "graphics", 60000, 13, 216,
                   "irregular", rows=6000, nnz_per_row=13,
                   dominance=1e-6, scaling_spread=0.4875,
                   value_spread=0.3, seed=11, iters=222),
        MatrixSpec("nd24k", "2D/3D", 72000, 399, 10019,
                   "banded", rows=4000, nnz_per_row=199,
                   dominance=1e-6, scaling_spread=0.8125, seed=12, iters=1980),
        MatrixSpec("x104", "structure", 108384, 80, 96704,
                   "irregular", rows=6000, nnz_per_row=80,
                   dominance=1e-6, scaling_spread=1.0969,
                   value_spread=1.2, seed=13, iters=5020),
        MatrixSpec("stencil5", "structure", 640000, 5, 3162,
                   "stencil", rows=10000, nnz_per_row=5, seed=14, iters=250),
    ]
}


def names() -> list[str]:
    """Suite matrix names in Table 3 order."""
    return list(SUITE)


def build(name: str, scale: float = 1.0, *, cache: bool = True) -> sp.csr_matrix:
    """Build a suite matrix by name.

    Served through the content-keyed problem cache
    (:mod:`repro.matrices.cache`) by default, so campaign cells,
    benchmarks and tests that ask for the same (name, scale) share one
    build.  The returned matrix is shared — callers must not mutate it;
    pass ``cache=False`` for a private copy.
    """
    try:
        spec = SUITE[name]
    except KeyError:
        raise KeyError(f"unknown matrix {name!r}; known: {', '.join(SUITE)}") from None
    if cache:
        from repro.matrices.cache import cached_suite_build

        return cached_suite_build(name, scale, spec)
    return spec.build(scale)


def spec(name: str) -> MatrixSpec:
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(f"unknown matrix {name!r}; known: {', '.join(SUITE)}") from None
