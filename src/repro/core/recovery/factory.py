"""Scheme factory: build any Table-2 scheme from its paper name.

Keeps experiment code declarative: ``make_scheme("LSI-DVFS")`` instead of
re-spelling constructor arguments in every benchmark.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from repro.checkpoint.store import DiskStore, MemoryStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recovery.base import RecoveryScheme

#: Default CR cadence when no MTBF is supplied: the resilience study's
#: fixed "every 100 iterations" (Section 5.2).
DEFAULT_CR_INTERVAL_ITERS = 100


def _cls(module: str, name: str) -> type:
    """Scheme class ``name`` of ``repro.core.recovery.<module>``; a
    builder imports its scheme's module only when it runs."""
    return getattr(importlib.import_module(f"repro.core.recovery.{module}"), name)


def _cr(store_cls, name: str):
    def build(*, interval_iters=None, mtbf_s=None, **_):
        if interval_iters is None and mtbf_s is None:
            interval_iters = DEFAULT_CR_INTERVAL_ITERS
        return _cls("checkpoint", "CheckpointRestart")(
            store_cls(), interval_iters=interval_iters, mtbf_s=mtbf_s, name=name
        )

    return build


def _interpolation(cls: str, **fixed):
    def build(*, construct_tol=1e-6, **_):
        return _cls("interpolation", cls)(
            method="cg", construct_tol=construct_tol, **fixed
        )

    return build


#: Every scheme by its paper name.  Listing the names imports no scheme:
#: LI/LSI pull in ``scipy.sparse``, and a process that only reads
#: stored results must never load it.
_BUILDERS: dict[str, Callable[..., RecoveryScheme]] = {
    "RD": lambda **_: _cls("redundancy", "Redundancy")(),
    "TMR": lambda **_: _cls("redundancy", "Redundancy")(replicas=3),
    "CR-M": _cr(MemoryStore, "CR-M"),
    "CR-D": _cr(DiskStore, "CR-D"),
    "CR-ML": lambda *, interval_iters=None, **_: _cls(
        "multilevel", "MultiLevelCheckpointRestart"
    )(memory_interval=interval_iters or 25),
    "F0": lambda **_: _cls("fill", "ZeroFill")(),
    "FI": lambda **_: _cls("fill", "InitialGuessFill")(),
    "LI": _interpolation("LinearInterpolation"),
    "LI-LU": lambda **_: _cls("interpolation", "LinearInterpolation")(method="lu"),
    "LI-DVFS": _interpolation("LinearInterpolation", dvfs=True),
    "LSI": _interpolation("LeastSquaresInterpolation"),
    "LSI-QR": lambda **_: _cls("interpolation", "LeastSquaresInterpolation")(
        method="qr"
    ),
    "LSI-DVFS": _interpolation("LeastSquaresInterpolation", dvfs=True),
    "ESR": lambda **_: _cls("esr", "ExactStateReconstruction")(),
    "ABCR": lambda *, interval_iters=None, **_: _cls(
        "abcr", "AlgorithmBasedCheckpointRecovery"
    )(interval_iters=interval_iters or DEFAULT_CR_INTERVAL_ITERS),
}


def scheme_names() -> list[str]:
    """All scheme names :func:`make_scheme` accepts."""
    return list(_BUILDERS)


def make_scheme(
    name: str,
    *,
    interval_iters: int | None = None,
    mtbf_s: float | None = None,
    construct_tol: float = 1e-6,
) -> RecoveryScheme:
    """Build a recovery scheme by its paper name.

    Parameters
    ----------
    name:
        One of :func:`scheme_names` (e.g. ``"CR-D"``, ``"LI-DVFS"``).
    interval_iters, mtbf_s:
        CR cadence control: a fixed iteration interval, or an MTBF from
        which Young's optimum is derived at setup (Section 5.3).
    construct_tol:
        Local-CG construction tolerance for LI/LSI (Figure 4's x-axis).
    """
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; known: {', '.join(_BUILDERS)}"
        ) from None
    return build(
        interval_iters=interval_iters, mtbf_s=mtbf_s, construct_tol=construct_tol
    )
