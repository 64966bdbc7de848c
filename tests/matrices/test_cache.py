"""Unit tests for the content-keyed problem-setup cache."""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.matrices import cache
from repro.matrices import suite
from repro.matrices.cache import _LRU, _MISS, matrix_fingerprint
from repro.matrices.generators import banded_spd


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Each test gets empty in-process caches and a private disk root."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_PROBLEM_CACHE", raising=False)
    cache.clear_memory_caches()
    yield
    cache.clear_memory_caches()


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        b = banded_spd(64, 5, dominance=0.05, seed=3)
        assert a is not b
        assert matrix_fingerprint(a) == matrix_fingerprint(b)

    def test_different_values_different_fingerprint(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        b = banded_spd(64, 5, dominance=0.05, seed=4)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_different_structure_different_fingerprint(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        b = banded_spd(64, 7, dominance=0.05, seed=3)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_cached_on_instance(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        fp = matrix_fingerprint(a)
        assert getattr(a, "_repro_fingerprint") == fp
        assert matrix_fingerprint(a) is fp

    def test_format_independent(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        assert matrix_fingerprint(a.tocoo()) == matrix_fingerprint(a)


class TestLRU:
    def test_hit_miss_counters(self):
        lru = _LRU(4)
        assert lru.get("a") is _MISS
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.hits == 1 and lru.misses == 1

    def test_evicts_least_recently_used(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")          # refresh a; b is now oldest
        lru.put("c", 3)
        assert lru.get("b") is _MISS
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_clear_resets_everything(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.get("a")
        lru.get("missing")
        lru.clear()
        assert len(lru) == 0 and lru.hits == 0 and lru.misses == 0

    def test_eviction_between_lookup_and_reorder_is_not_an_error(self):
        """Worker threads share the module LRUs: another thread evicting
        the key a ``get`` just found must not make it raise KeyError."""
        lru = _LRU(1)
        lru.put("a", 1)
        rivals = []

        class EvictDuringLookup(OrderedDict):
            def __getitem__(self, key):
                value = super().__getitem__(key)
                if not rivals:  # once: popitem reads through here too
                    rival = threading.Thread(target=lru.put, args=("b", 2))
                    rivals.append(rival)
                    rival.start()
                    rival.join(timeout=0.05)  # the lock holds it off
                return value

        lru._d = EvictDuringLookup(lru._d)
        assert lru.get("a") == 1
        rivals[0].join(timeout=5.0)
        assert not rivals[0].is_alive()
        assert lru.get("b") == 2
        assert lru.get("a") is _MISS


class TestSuiteBuildCache:
    def test_memory_hit_returns_same_instance(self):
        a = suite.build("Kuu", scale=0.2)
        b = suite.build("Kuu", scale=0.2)
        assert a is b
        assert cache.cache_stats()["matrices"]["hits"] >= 1

    def test_disk_round_trip_bit_identical(self):
        a = suite.build("Kuu", scale=0.2)
        files = list(cache.problems_dir().glob("Kuu-*.npz"))
        assert files, "disk entry not written"
        cache.clear_memory_caches()
        b = suite.build("Kuu", scale=0.2)
        assert a is not b
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)  # exact, not approx

    def test_corrupt_disk_entry_rebuilt(self):
        a = suite.build("Kuu", scale=0.2)
        (path,) = cache.problems_dir().glob("Kuu-*.npz")
        path.write_bytes(b"not an npz")
        cache.clear_memory_caches()
        b = suite.build("Kuu", scale=0.2)
        assert np.array_equal(a.data, b.data)

    def test_cache_false_gives_private_copy(self):
        a = suite.build("Kuu", scale=0.2)
        b = suite.build("Kuu", scale=0.2, cache=False)
        assert a is not b
        assert np.array_equal(a.data, b.data)

    def test_disk_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        suite.build("Kuu", scale=0.2)
        assert not cache.problems_dir().exists()

    def test_memory_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBLEM_CACHE", "0")
        a = suite.build("Kuu", scale=0.2)
        b = suite.build("Kuu", scale=0.2)
        assert a is not b  # served from disk, not shared memory
        assert cache.cache_stats()["matrices"]["entries"] == 0


class TestDistributedCache:
    def test_same_matrix_same_view(self):
        a = suite.build("Kuu", scale=0.2)
        d1 = cache.distributed_matrix(a, 4)
        d2 = cache.distributed_matrix(a, 4)
        assert d1 is d2

    def test_keyed_by_content_not_identity(self):
        a = banded_spd(64, 5, dominance=0.05, seed=3)
        b = banded_spd(64, 5, dominance=0.05, seed=3)
        assert cache.distributed_matrix(a, 4) is cache.distributed_matrix(b, 4)

    def test_rank_count_in_key(self):
        a = suite.build("Kuu", scale=0.2)
        assert cache.distributed_matrix(a, 4) is not cache.distributed_matrix(a, 8)

    def test_view_comes_back_warm(self):
        a = suite.build("Kuu", scale=0.2)
        d = cache.distributed_matrix(a, 4)
        assert len(d._blocks) == 4
        assert "halo_pair_bytes" in d.__dict__  # cached_property computed

    def test_memory_disabled_builds_fresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBLEM_CACHE", "0")
        a = suite.build("Kuu", scale=0.2, cache=False)
        assert cache.distributed_matrix(a, 4) is not cache.distributed_matrix(a, 4)


class TestIterationCostsCache:
    @staticmethod
    def _comm(nranks=4):
        from repro.cluster.comm import SimComm
        from repro.core.solver import SolverConfig

        cfg = SolverConfig(nranks=nranks)
        return SimComm(cfg.machine, cfg.nranks, cfg.network)

    def test_memory_hit(self):
        a = suite.build("Kuu", scale=0.2)
        dmat = cache.distributed_matrix(a, 4)
        comm = self._comm()
        c1 = cache.iteration_costs(dmat, comm, preconditioned=False)
        c2 = cache.iteration_costs(dmat, comm, preconditioned=False)
        assert c1 is c2

    def test_preconditioned_flag_in_key(self):
        a = suite.build("Kuu", scale=0.2)
        dmat = cache.distributed_matrix(a, 4)
        comm = self._comm()
        plain = cache.iteration_costs(dmat, comm, preconditioned=False)
        precond = cache.iteration_costs(dmat, comm, preconditioned=True)
        assert plain is not precond

    def test_disk_round_trip_exact(self):
        a = suite.build("Kuu", scale=0.2)
        dmat = cache.distributed_matrix(a, 4)
        comm = self._comm()
        c1 = cache.iteration_costs(dmat, comm, preconditioned=False)
        cache.clear_memory_caches()
        dmat = cache.distributed_matrix(a, 4)
        c2 = cache.iteration_costs(dmat, comm, preconditioned=False)
        assert c1 is not c2
        assert np.array_equal(c1.compute_s, c2.compute_s)
        assert c1.halo_s == c2.halo_s
        assert c1.allreduce_s == c2.allreduce_s
        assert c1.bytes_per_iter == c2.bytes_per_iter


class TestSolverIntegration:
    def test_repeat_solver_construction_shares_setup(self):
        from repro.core.solver import ResilientSolver, SolverConfig

        a = suite.build("Kuu", scale=0.2)
        rng = np.random.default_rng(0)
        b = a @ rng.standard_normal(a.shape[0])
        s1 = ResilientSolver(a, b, config=SolverConfig(nranks=4))
        before = cache.cache_stats()["distributed"]["hits"]
        s2 = ResilientSolver(a, b, config=SolverConfig(nranks=4))
        after = cache.cache_stats()["distributed"]["hits"]
        assert after > before
        assert s1.cg.dmat is s2.cg.dmat


class TestPerCellCosts:
    """What a cold cell on an already-seen matrix must not pay again."""

    CONFIG = ExperimentConfig(
        matrix="wathen100", nranks=8, n_faults=2, scale=0.25, engine="analytic"
    )

    def test_second_experiment_hashes_nothing(self, monkeypatch):
        Experiment(self.CONFIG).run("LI")  # warm every cache
        digests = []
        blake2b = cache.hashlib.blake2b

        def counting(*args, **kwargs):
            digests.append(args)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(cache.hashlib, "blake2b", counting)
        exp = Experiment(self.CONFIG)
        exp.run("LI")
        assert digests == []
        assert exp.a is suite.build(self.CONFIG.matrix, self.CONFIG.scale)

    def test_horizons_stay_in_process(self):
        Experiment(self.CONFIG).run("LI")
        assert not list(cache.problems_dir().glob("horizon-*"))
        before = cache.cache_stats()["horizons"]
        Experiment(self.CONFIG).run("LI")  # same matrix, seed, tol: same key
        after = cache.cache_stats()["horizons"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
