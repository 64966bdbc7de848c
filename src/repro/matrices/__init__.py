"""Problem substrate: SPD matrices, partitions, distributed views.

Provides the block-row partition of Figure 2, synthetic SPD generators
mirroring the character of the paper's SuiteSparse suite (Table 3), and a
distributed-matrix view exposing exactly the per-rank blocks the recovery
schemes need (``A_{p_i,p_i}``, ``A_{p_i,:}``, halo structure).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "partition": ("BlockRowPartition",),
    "generators": (
        "stencil_5pt",
        "banded_spd",
        "irregular_spd",
        "tridiagonal_spd",
    ),
    "distributed": ("DistributedMatrix",),
    "suite": ("MatrixSpec", "SUITE", "build", "names"),
}

__all__ = [
    "BlockRowPartition",
    "stencil_5pt",
    "banded_spd",
    "irregular_spd",
    "tridiagonal_spd",
    "DistributedMatrix",
    "MatrixSpec",
    "SUITE",
    "build",
    "names",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
