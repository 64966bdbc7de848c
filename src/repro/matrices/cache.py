"""Content-keyed problem-setup cache.

Building an experiment's problem is expensive relative to solving it
fast: generating a suite matrix, analysing the halo structure of its
:class:`~repro.matrices.distributed.DistributedMatrix`, and measuring
:class:`~repro.core.cg.IterationCosts` all repeat identically across
campaign cells, benchmark scripts and tests.  This module memoizes all
three behind content keys so a 14-matrix × 6-scheme sweep builds each
problem once.

Two layers:

* **In-process LRU** — always on (kill switch: ``REPRO_PROBLEM_CACHE=0``).
  Safe to share because every cached object is immutable by contract:
  matrices are never written after construction, ``DistributedMatrix``
  only grows lazily-computed read-only views, and ``IterationCosts`` is
  a frozen dataclass.
* **On-disk store** under ``.repro-cache/problems/`` — suite matrices
  and measured costs persist across processes (campaign workers, CI
  steps).  ``REPRO_CACHE=0`` disables it, ``REPRO_CACHE_DIR`` relocates
  the root; both knobs are shared with ``benchmarks/common.py`` and the
  campaign result store.  Files are written atomically (tmp + rename)
  and unreadable entries are silently rebuilt.

Keys are content fingerprints, not identities: a matrix is keyed by a
BLAKE2 digest of its CSR structure and values (cached on the instance),
so equal matrices hit the same entry no matter how they were built, and
any change to a generator invalidates cleanly.  Float data round-trips
``.npz`` exactly, which keeps cache hits bit-identical to cold builds —
campaign serial↔parallel equality does not depend on cache state.
"""

from __future__ import annotations

import hashlib
import os
import threading
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp

    from repro.matrices.distributed import DistributedMatrix

# ``scipy.sparse`` and the distributed view import on use: a reader of
# stored results asks this module for :func:`cache_stats` only.

_FP_ATTR = "_repro_fingerprint"
_MISS = object()

#: What a corrupt / truncated / concurrently-written ``.npz`` entry can
#: raise.  Deliberately narrow: a broad ``except Exception`` here would
#: also swallow *control* exceptions raised by signal handlers mid-load
#: (e.g. the campaign runner's SIGALRM-driven ``CellTimeout``), turning
#: a timeout into a silent cache rebuild.
_CORRUPT_ENTRY_ERRORS = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile)


def matrix_fingerprint(a) -> str:
    """Stable content digest of a sparse matrix (cached on the instance)."""
    cached = getattr(a, _FP_ATTR, None)
    if cached is not None:
        return cached
    import scipy.sparse as sp

    m = a if (sp.issparse(a) and getattr(a, "format", None) == "csr") else sp.csr_matrix(a)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(m.shape).encode())
    h.update(np.ascontiguousarray(m.indptr).tobytes())
    h.update(np.ascontiguousarray(m.indices).tobytes())
    h.update(np.ascontiguousarray(m.data).tobytes())
    fp = h.hexdigest()
    try:
        setattr(a, _FP_ATTR, fp)
    except AttributeError:  # pragma: no cover - exotic matrix types
        pass
    return fp


class _LRU:
    """Tiny LRU with hit/miss counters.

    Locked: the module-level instances are shared by every thread of a
    process (the serving tier solves on a worker pool), and a lookup's
    reorder must not race another thread's eviction of the same key.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._d: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._d[key]
            except KeyError:
                self.misses += 1
                return _MISS
            self._d.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            while len(self._d) > self.capacity:
                self._d.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._d.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._d)


#: Suite matrices are a few MB each; distributed views hold per-rank
#: blocks (~2x the matrix), so they get a smaller budget.
_matrices = _LRU(32)
_dmats = _LRU(16)
_costs = _LRU(256)
_horizons = _LRU(256)


def _memory_enabled() -> bool:
    return os.environ.get("REPRO_PROBLEM_CACHE", "1") != "0"


def _disk_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def problems_dir() -> Path:
    return cache_root() / "problems"


def _digest(key: tuple) -> str:
    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


def _atomic_savez(path: Path, **arrays) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - read-only cache dir etc.
        tmp.unlink(missing_ok=True)


def _try_load(path: Path):
    if not path.exists():
        return None
    try:
        return np.load(path)
    except _CORRUPT_ENTRY_ERRORS:  # corrupt / truncated entry: rebuild
        return None


# ----------------------------------------------------------------------
# suite matrices
# ----------------------------------------------------------------------
def cached_suite_build(name: str, scale: float, spec) -> sp.csr_matrix:
    """Memoized ``spec.build(scale)`` (both layers).

    The key includes the spec's full repr, so recalibrating a generator
    parameter invalidates stale entries instead of serving them.
    """
    key = ("suite", name, float(scale), repr(spec))
    if _memory_enabled():
        m = _matrices.get(key)
        if m is not _MISS:
            return m
    m = None
    path = problems_dir() / f"{name}-{_digest(key)}.npz" if _disk_enabled() else None
    if path is not None:
        z = _try_load(path)
        if z is not None:
            import scipy.sparse as sp

            with z:
                try:
                    m = sp.csr_matrix(
                        (z["data"], z["indices"], z["indptr"]),
                        shape=tuple(z["shape"]),
                    )
                except _CORRUPT_ENTRY_ERRORS:
                    m = None
    if m is None:
        m = spec.build(scale)
        if path is not None:
            _atomic_savez(
                path,
                data=m.data,
                indices=m.indices,
                indptr=m.indptr,
                shape=np.asarray(m.shape),
            )
    matrix_fingerprint(m)
    if _memory_enabled():
        _matrices.put(key, m)
    return m


# ----------------------------------------------------------------------
# distributed views (halo analysis)
# ----------------------------------------------------------------------
def distributed_matrix(a, nranks: int) -> DistributedMatrix:
    """Memoized, fully warmed block-row distribution of ``a``.

    In-process only: the halo analysis is pure derived structure, cheap
    to rebuild once per process but expensive once per cell.
    """
    if not _memory_enabled():
        return _distribute(a, nranks)
    key = ("dmat", matrix_fingerprint(a), int(nranks))
    dmat = _dmats.get(key)
    if dmat is _MISS:
        dmat = _distribute(a, nranks)
        _dmats.put(key, dmat)
    return dmat


def _distribute(a, nranks: int) -> DistributedMatrix:
    from repro.matrices.distributed import DistributedMatrix
    from repro.matrices.partition import BlockRowPartition

    dmat = DistributedMatrix(a, BlockRowPartition(a.shape[0], nranks))
    dmat.warm()
    return dmat


# ----------------------------------------------------------------------
# measured iteration costs
# ----------------------------------------------------------------------
def iteration_costs(dmat: DistributedMatrix, comm, *, preconditioned: bool):
    """Memoized ``IterationCosts.measure`` (both layers).

    Costs are measured at f_max; DVFS derating happens in the solver on
    a per-solve copy, so cached entries are frequency-independent.  The
    key captures everything the measurement reads: matrix content,
    rank count, machine and network specs, and the preconditioner flag.
    """
    from repro.core.cg import IterationCosts

    key = (
        "costs",
        matrix_fingerprint(dmat.a),
        int(dmat.nranks),
        repr(comm.machine),
        repr(comm.network),
        bool(preconditioned),
    )
    if _memory_enabled():
        costs = _costs.get(key)
        if costs is not _MISS:
            return costs
    costs = None
    path = problems_dir() / f"costs-{_digest(key)}.npz" if _disk_enabled() else None
    if path is not None:
        z = _try_load(path)
        if z is not None:
            import scipy.sparse as sp

            with z:
                try:
                    costs = IterationCosts(
                        compute_s=np.asarray(z["compute_s"], dtype=np.float64),
                        halo_s=float(z["halo_s"]),
                        allreduce_s=float(z["allreduce_s"]),
                        bytes_per_iter=float(z["bytes_per_iter"]),
                    )
                except _CORRUPT_ENTRY_ERRORS:
                    costs = None
    if costs is None:
        costs = IterationCosts.measure(dmat, comm, preconditioned=preconditioned)
        if path is not None:
            _atomic_savez(
                path,
                compute_s=costs.compute_s,
                halo_s=np.float64(costs.halo_s),
                allreduce_s=np.float64(costs.allreduce_s),
                bytes_per_iter=np.float64(costs.bytes_per_iter),
            )
    if _memory_enabled():
        _costs.put(key, costs)
    return costs


# ----------------------------------------------------------------------
# fault-free horizons
# ----------------------------------------------------------------------
def fault_free_horizon(
    dmat: DistributedMatrix,
    b,
    *,
    tol: float,
    max_iters: int,
    preconditioner: str | None = None,
    seed: int = 0,
) -> int:
    """Memoized fault-free CG iteration count (in-process only).

    This is the one numeric solve the analytic engine cannot avoid: the
    convergence horizon ``H`` that anchors every closed-form model.  CG
    iterates on *global* vectors, so the count is independent of how the
    matrix is partitioned — the key deliberately excludes ``nranks``,
    letting one probe serve a whole weak-scaling column.  ``seed`` tags
    the right-hand side (campaigns derive ``b`` from the config seed);
    failed probes raise and are never cached.  There is no disk layer:
    every new seed would cost a file, and the result store already
    persists each cell the horizon went into.
    """
    from repro.core.cg import DistributedCG
    from repro.core.errors import ConvergenceError

    key = (
        "horizon",
        matrix_fingerprint(dmat.a),
        int(seed),
        float(tol),
        int(max_iters),
        str(preconditioner),
    )
    if _memory_enabled():
        h = _horizons.get(key)
        if h is not _MISS:
            return h
    probe = DistributedCG(
        dmat, b, tol=tol, max_iters=max_iters, preconditioner=preconditioner
    )
    h = probe.solve_fault_free()
    if not probe.converged:
        raise ConvergenceError(
            tol=tol,
            final_residual=probe.relative_residual,
            iterations=h,
        )
    if _memory_enabled():
        _horizons.put(key, h)
    return h


# ----------------------------------------------------------------------
# maintenance / introspection
# ----------------------------------------------------------------------
def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters per cache layer (for logs and tests)."""
    return {
        name: {"hits": lru.hits, "misses": lru.misses, "entries": len(lru)}
        for name, lru in (
            ("matrices", _matrices),
            ("distributed", _dmats),
            ("costs", _costs),
            ("horizons", _horizons),
        )
    }


def clear_memory_caches() -> None:
    """Drop every in-process cache entry (tests; not the disk store)."""
    _matrices.clear()
    _dmats.clear()
    _costs.clear()
    _horizons.clear()
