"""Unit tests for checkpoint stores."""

import numpy as np
import pytest

from repro.checkpoint.store import DiskStore, MemoryStore, Snapshot


class TestSnapshot:
    def test_immutable(self):
        s = Snapshot(3, np.ones(10))
        with pytest.raises(ValueError):
            s.x[0] = 2.0

    def test_nbytes(self):
        assert Snapshot(0, np.ones(10)).nbytes == 80

    def test_rejects_negative_iteration(self):
        with pytest.raises(ValueError):
            Snapshot(-1, np.ones(2))


class TestStoreDataPath:
    @pytest.mark.parametrize("store_cls", [MemoryStore, DiskStore])
    def test_save_copies_data(self, store_cls):
        store = store_cls()
        x = np.ones(10)
        snap = store.save(1, x)
        x[:] = 99.0
        assert np.allclose(snap.x, 1.0)

    @pytest.mark.parametrize("store_cls", [MemoryStore, DiskStore])
    def test_latest_and_latest_before(self, store_cls):
        store = store_cls()
        store.save(10, np.full(4, 1.0))
        store.save(20, np.full(4, 2.0))
        store.save(30, np.full(4, 3.0))
        assert store.latest().iteration == 30
        assert store.latest_before(25).iteration == 20
        assert store.latest_before(20).iteration == 20
        assert store.latest_before(5) is None

    def test_empty_store(self):
        store = MemoryStore()
        assert store.latest() is None
        assert store.count == 0


class TestMemoryCosts:
    def test_write_time_constant_under_weak_scaling(self):
        """Constant bytes per rank => CR-M time stays flat (Section 6)."""
        store = MemoryStore()
        per_rank = 1_000_000.0
        t16 = store.write_time_s(per_rank * 16, 16)
        t1024 = store.write_time_s(per_rank * 1024, 1024)
        assert t1024 == pytest.approx(t16)

    def test_read_equals_write(self):
        store = MemoryStore()
        assert store.read_time_s(1e6, 4) == pytest.approx(store.write_time_s(1e6, 4))

    def test_rejects_bad_args(self):
        store = MemoryStore()
        with pytest.raises(ValueError):
            store.write_time_s(-1, 4)
        with pytest.raises(ValueError):
            store.write_time_s(100, 0)


class TestDiskCosts:
    def test_write_time_linear_under_weak_scaling(self):
        """Constant bytes per rank => CR-D time grows ~linearly (Section 6)."""
        store = DiskStore()
        per_rank = 10_000_000.0
        t16 = store.write_time_s(per_rank * 16, 16)
        t256 = store.write_time_s(per_rank * 256, 256)
        # subtract latency before comparing slopes
        lat = store.params.latency_s
        assert (t256 - lat) / (t16 - lat) == pytest.approx(16.0, rel=1e-6)

    def test_disk_slower_than_memory(self):
        nbytes, nranks = 8_000_000.0, 16
        assert DiskStore().write_time_s(nbytes, nranks) > MemoryStore().write_time_s(
            nbytes, nranks
        )

    def test_read_faster_than_write(self):
        store = DiskStore()
        assert store.read_time_s(1e8, 4) < store.write_time_s(1e8, 4)

    def test_rejects_bad_params(self):
        from repro.checkpoint.store import _DiskParams

        with pytest.raises(ValueError):
            DiskStore(_DiskParams(aggregate_bandwidth_gbps=0.0))
