"""ServingCore behaviours: LRU, coalescing, group batching, store tiers.

The core is socket-free, so everything here runs on a plain event loop
with an injected ``compute(config, schemes)``; the last classes use real
engine runs to pin the bit-identical guarantee.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.campaign.serialize import report_to_dict
from repro.campaign.store import ResultStore, cell_key
from repro.engines.sim import SimEngine
from repro.harness.experiment import Experiment
from repro.serve.core import ServingCore
from tests.serve.conftest import make_cell, run


class Recorder:
    """Injectable compute that records calls and returns sentinels."""

    def __init__(self):
        self.calls = []

    def compute(self, config, schemes):
        self.calls.append((config, tuple(schemes)))
        return {s: f"report:{s}:{config.seed}" for s in schemes}


def report_bytes(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


class TestLru:
    def test_computed_then_lru(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)

        async def scenario():
            first = await core.solve_cell(make_cell("RD"))
            second = await core.solve_cell(make_cell("RD"))
            return first, second

        first, second = run(scenario())
        core.close()
        assert first.source == "computed"
        assert second.source == "lru"
        assert second.report is first.report
        assert first.key == cell_key(make_cell("RD"))
        assert len(rec.calls) == 1

    def test_eviction_at_capacity(self):
        rec = Recorder()
        core = ServingCore(None, cache_size=1, compute=rec.compute)

        async def scenario():
            a = await core.solve_cell(make_cell("RD"))
            b = await core.solve_cell(make_cell("F0"))  # evicts RD
            a2 = await core.solve_cell(make_cell("RD"))
            return a, b, a2

        a, b, a2 = run(scenario())
        core.close()
        assert (a.source, b.source, a2.source) == ("computed",) * 3
        assert len(core._lru) == 1

    def test_cache_size_zero_disables_the_lru(self):
        rec = Recorder()
        core = ServingCore(None, cache_size=0, compute=rec.compute)

        async def scenario():
            return [
                (await core.solve_cell(make_cell("RD"))).source for _ in range(2)
            ]

        assert run(scenario()) == ["computed", "computed"]
        core.close()

    @pytest.mark.parametrize("kwargs", [{"cache_size": -1}, {"workers": 0}])
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingCore(None, **kwargs)


class TestCoalescing:
    def test_identical_inflight_cells_share_one_computation(self):
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def blocking(config, schemes):
            calls.append(schemes)
            entered.set()
            assert release.wait(timeout=30.0)
            return {s: "the-report" for s in schemes}

        cell = make_cell("RD", engine="sim")
        core = ServingCore(None, compute=blocking)

        async def scenario():
            loop = asyncio.get_running_loop()
            t1 = asyncio.ensure_future(core.solve_cell(cell))
            assert await loop.run_in_executor(None, entered.wait, 10.0)
            t2 = asyncio.ensure_future(core.solve_cell(cell))
            t3 = asyncio.ensure_future(core.solve_cell(cell))
            await asyncio.sleep(0.01)  # let the followers reach the wait
            release.set()
            return await asyncio.gather(t1, t2, t3)

        first, *followers = run(scenario())
        core.close()
        assert len(calls) == 1
        assert first.source == "computed"
        assert [o.source for o in followers] == ["coalesced", "coalesced"]
        assert all(o.report == "the-report" for o in followers)

    def test_compute_error_reaches_every_waiter_and_is_not_cached(self):
        boom = RuntimeError("engine exploded")
        attempts = []

        def failing(config, schemes):
            attempts.append(schemes)
            raise boom

        cell = make_cell("RD", engine="sim")
        core = ServingCore(None, compute=failing)

        async def scenario():
            with pytest.raises(RuntimeError, match="engine exploded"):
                await core.solve_cell(cell)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await core.solve_cell(cell)  # failure was not cached

        run(scenario())
        core.close()
        assert len(attempts) == 2
        assert not core._inflight
        snap = core.metrics.snapshot()
        assert snap["counters"]['serve_errors{stage=solve}'] == 2.0


class TestMicroBatching:
    """Group commit: a config's group ships on the next loop tick."""

    def test_lone_cell_ships_without_a_timer(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)

        def no_timer(*args, **kwargs):
            raise AssertionError("a cell must not wait on a timer")

        async def scenario():
            asyncio.get_running_loop().call_later = no_timer
            return await core.solve_cell(make_cell("RD"))

        outcome = run(scenario())
        core.close()
        assert outcome.source == "computed"
        assert rec.calls == [(make_cell("RD").config, ("RD",))]

    def test_one_config_burst_becomes_one_batch(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)
        cells = [make_cell(s) for s in ("RD", "F0", "LI")]

        async def scenario():
            return await asyncio.gather(*(core.solve_cell(c) for c in cells))

        outcomes = run(scenario())
        core.close()
        assert len(rec.calls) == 1
        _, schemes = rec.calls[0]
        assert sorted(schemes) == ["F0", "LI", "RD"]
        for cell, outcome in zip(cells, outcomes):
            assert outcome.source == "computed"
            assert outcome.report == f"report:{cell.scheme}:0"
        snap = core.metrics.snapshot()
        assert snap["counters"]["serve_batches"] == 1.0

    def test_cell_queued_after_its_group_shipped_lands_in_the_next_group(self):
        shipped = threading.Event()
        release = threading.Event()
        rec = Recorder()

        def gated(config, schemes):
            shipped.set()
            assert release.wait(timeout=30.0)
            return rec.compute(config, schemes)

        core = ServingCore(None, compute=gated)

        async def scenario():
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(core.solve_cell(make_cell("RD")))
            assert await loop.run_in_executor(None, shipped.wait, 10.0)
            second = asyncio.ensure_future(core.solve_cell(make_cell("F0")))
            release.set()
            return await asyncio.gather(first, second)

        outcomes = run(scenario())
        core.close()
        # two workers may finish the groups in either order
        assert sorted(schemes for _, schemes in rec.calls) == [("F0",), ("RD",)]
        assert [o.report for o in outcomes] == ["report:RD:0", "report:F0:0"]

    def test_distinct_configs_batch_separately(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)

        async def scenario():
            return await asyncio.gather(
                core.solve_cell(make_cell("RD", seed=0)),
                core.solve_cell(make_cell("RD", seed=1)),
                core.solve_cell(make_cell("F0", seed=1)),
            )

        outcomes = run(scenario())
        core.close()
        assert sorted((c.seed, s) for c, s in rec.calls) == [
            (0, ("RD",)),
            (1, ("RD", "F0")),
        ]
        assert [o.report for o in outcomes] == [
            "report:RD:0",
            "report:RD:1",
            "report:F0:1",
        ]

    def test_batch_failure_reaches_every_member(self):
        attempts = []

        def failing(config, schemes):
            attempts.append(schemes)
            raise RuntimeError("batch exploded")

        core = ServingCore(None, compute=failing)

        async def scenario():
            burst = [core.solve_cell(make_cell(s)) for s in ("RD", "F0")]
            first = await asyncio.gather(*burst, return_exceptions=True)
            again = await asyncio.gather(
                core.solve_cell(make_cell("RD")), return_exceptions=True
            )
            return first + again

        results = run(scenario())
        core.close()
        assert all(isinstance(r, RuntimeError) for r in results)
        assert attempts == [["RD", "F0"], ["RD"]]  # the failure was not cached
        assert not core._lru

    def test_sim_burst_computes_one_baseline(self, monkeypatch):
        baselines = []
        solve_fault_free = SimEngine.solve_fault_free

        def counted(self, experiment):
            baselines.append(experiment.config)
            return solve_fault_free(self, experiment)

        monkeypatch.setattr(SimEngine, "solve_fault_free", counted)
        cells = [make_cell(s, engine="sim", seed=5) for s in ("RD", "F0", "LI")]
        core = ServingCore(None)

        async def scenario():
            return await asyncio.gather(*(core.solve_cell(c) for c in cells))

        outcomes = run(scenario())
        core.close()
        assert [o.source for o in outcomes] == ["computed"] * 3
        assert baselines == [cells[0].config]


class TestStoreTier:
    @pytest.fixture()
    def store(self, tmp_path):
        with ResultStore(tmp_path / "cache") as s:
            yield s

    def test_write_through_then_read_through(self, store):
        cell = make_cell("LI")
        core = ServingCore(store)
        outcome = run(core.solve_cell(cell))  # real analytic solve
        core.close()
        assert outcome.source == "computed"
        assert store.get(cell) is not None  # write-through persisted it

        fresh = ServingCore(store)  # cold LRU, warm store
        hit = run(fresh.solve_cell(cell))
        again = run(fresh.solve_cell(cell))
        fresh.close()
        assert hit.source == "store"
        assert again.source == "lru"
        assert report_to_dict(hit.report) == report_to_dict(outcome.report)

    def test_storeless_core_always_computes(self):
        rec = Recorder()
        core = ServingCore(None, cache_size=0, compute=rec.compute)
        run(core.solve_cell(make_cell("RD")))
        run(core.solve_cell(make_cell("RD")))
        core.close()
        assert len(rec.calls) == 2


class TestBitIdentical:
    def test_served_report_equals_a_direct_engine_run(self):
        for engine in ("analytic", "sim"):
            cell = make_cell("LI", engine=engine, seed=3)
            core = ServingCore(None)  # default compute: the real engines
            outcome = run(core.solve_cell(cell))
            core.close()
            direct = Experiment(cell.config).run(cell.scheme)
            assert report_bytes(outcome.report) == report_bytes(direct), engine

    def test_batched_and_lone_computation_agree(self):
        for engine in ("analytic", "sim"):
            cells = [make_cell(s, engine=engine, seed=4) for s in ("RD", "F0", "LI")]
            core = ServingCore(None)

            async def scenario():
                return await asyncio.gather(*(core.solve_cell(c) for c in cells))

            outcomes = run(scenario())
            core.close()
            assert core.metrics.snapshot()["counters"]["serve_batches"] == 1.0
            for cell, outcome in zip(cells, outcomes):
                direct = Experiment(cell.config).run(cell.scheme)
                assert report_bytes(outcome.report) == report_bytes(direct), (
                    engine,
                    cell.scheme,
                )


class TestIntrospection:
    def test_cache_stats_counts_sources(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)

        async def scenario():
            await core.solve_cell(make_cell("RD"))
            await core.solve_cell(make_cell("RD"))

        run(scenario())
        stats = core.cache_stats()
        core.close()
        assert stats["solved_by_source"] == {"computed": 1, "lru": 1}
        assert stats["lru_entries"] == 1
        assert stats["lru_capacity"] == core.cache_size
        assert stats["inflight"] == 0
        assert stats["pending_batches"] == 0

    def test_drain_returns_once_idle(self):
        rec = Recorder()
        core = ServingCore(None, compute=rec.compute)

        async def scenario():
            task = asyncio.ensure_future(core.solve_cell(make_cell("RD")))
            await core.drain()
            assert not core._inflight and not core._pending
            await task

        run(scenario())
        core.close()
