"""Fleet telemetry: event codec, correlation ids, the monitor fold.

The worker → parent channel is side-band only, so these tests pin the
two contracts that make it safe: the ``--json-progress`` wire format
round-trips exactly (schema-checked both ways), and the deterministic
cell correlation ids never perturb stored payloads.  The
:class:`FleetMonitor` state machine is driven directly with a fake
clock — queued/started/finished races, retries, heartbeat gaps — and
its manifest snapshot is checked against what it was fed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign.fleet import (
    CELL_EVENTS,
    ChannelDrainer,
    FleetMonitor,
    LocalChannel,
    ProgressEventError,
    WorkerChannel,
    cell_correlation_id,
    cell_event,
    cell_event_from_line,
    cell_event_to_line,
    init_worker,
)
from repro.campaign.runner import (
    CellExecutionError,
    CellResult,
    CellTimeout,
    run_campaign,
)
from repro.campaign.store import cell_key

EVENT_DOC = {
    "ts": 1700000000.25,
    "run_id": "aaaabbbbccccdddd",
    "event": "finished",
    "cell": "wathen100/r8/f2/x0.25/FF",
    "cell_id": "0123456789abcdef",
    "worker": 4242,
    "attempt": 2,
    "elapsed_s": 1.5,
}

GOLDEN_LINE = (
    '{"attempt":2,"cell":"wathen100/r8/f2/x0.25/FF",'
    '"cell_id":"0123456789abcdef","elapsed_s":1.5,"event":"finished",'
    '"run_id":"aaaabbbbccccdddd","ts":1700000000.25,"worker":4242}'
)


class TestEventCodec:
    def test_round_trip_is_exact(self):
        line = cell_event_to_line(EVENT_DOC)
        assert cell_event_from_line(line) == EVENT_DOC
        assert cell_event_to_line(cell_event_from_line(line)) == line

    def test_wire_format_is_canonical(self):
        """Sorted keys, compact separators: the golden line is the line."""
        assert cell_event_to_line(EVENT_DOC) == GOLDEN_LINE

    def test_cell_event_builds_conformant_docs(self):
        for kind in CELL_EVENTS:
            doc = cell_event("r" * 16, kind, "cell/FF", "c" * 16, 1, 1)
            assert cell_event_from_line(cell_event_to_line(doc)) == doc

    def test_error_field_round_trips(self):
        doc = cell_event(
            "r" * 16, "failed", "cell/FF", "c" * 16, 1, 3,
            elapsed_s=0.5, error="RuntimeError: boom",
        )
        assert cell_event_from_line(cell_event_to_line(doc))["error"] == (
            "RuntimeError: boom"
        )

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("run_id"), "missing keys"),
            (lambda d: d.update(surprise=1), "unknown keys"),
            (lambda d: d.update(event="exploded"), "unknown event"),
            (lambda d: d.update(ts="noon"), "'ts' must be a number"),
            (lambda d: d.update(ts=True), "'ts' must be a number"),
            (lambda d: d.update(worker="w1"), "'worker' must be an integer"),
            (lambda d: d.update(attempt=True), "'attempt' must be an integer"),
            (lambda d: d.update(cell=7), "'cell' must be a string"),
            (lambda d: d.update(elapsed_s="slow"), "'elapsed_s' must be a number"),
            (lambda d: d.update(error=13), "'error' must be a string"),
        ],
    )
    def test_nonconformant_docs_are_rejected(self, mutate, match):
        doc = dict(EVENT_DOC)
        mutate(doc)
        with pytest.raises(ProgressEventError, match=match):
            cell_event_to_line(doc)

    def test_non_json_line_is_rejected(self):
        with pytest.raises(ProgressEventError, match="not JSON"):
            cell_event_from_line("{nope")

    def test_non_object_line_is_rejected(self):
        with pytest.raises(ProgressEventError, match="not a JSON object"):
            cell_event_from_line("[1, 2]")


class TestCorrelationIds:
    def test_id_is_a_key_prefix_and_deterministic(self, tiny_spec):
        for cell in tiny_spec.cells():
            cid = cell_correlation_id(cell)
            assert cid == cell_key(cell)[:16]
            assert cid == cell_correlation_id(cell)
            assert len(cid) == 16

    def test_distinct_cells_get_distinct_ids(self, tiny_spec):
        ids = [cell_correlation_id(c) for c in tiny_spec.cells()]
        assert len(set(ids)) == len(ids)

    def test_annotation_reaches_the_stored_solve_span(self, store):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="annot",
            matrices=("wathen100",),
            schemes=("F0",),
            nranks=(8,),
            fault_loads=(2,),
            scale=0.25,
            trace=True,
        )
        result = run_campaign(spec, store=store)
        assert result.n_failed == 0
        for entry in store.entries():
            tel = entry.report.details["telemetry"]
            root = next(
                s for s in tel.spans.spans if s.name == "solve" and s.depth == 0
            )
            assert dict(root.attrs)["cell_id"] == cell_correlation_id(entry.cell)

    def test_untraced_report_is_left_alone(self, tiny_spec, store):
        result = run_campaign(tiny_spec, store=store)
        for r in result.results:
            assert "telemetry" not in r.report.details


class TestPicklableErrors:
    """Worker exceptions must carry their wasted seconds across the pool."""

    @pytest.mark.parametrize("cls", [CellTimeout, CellExecutionError])
    def test_elapsed_survives_pickling(self, cls):
        exc = pickle.loads(pickle.dumps(cls("boom", 1.25)))
        assert exc.elapsed_s == 1.25
        assert str(exc) == "boom"

    @pytest.mark.parametrize("cls", [CellTimeout, CellExecutionError])
    def test_elapsed_defaults_to_zero(self, cls):
        assert cls("boom").elapsed_s == 0.0


# ----------------------------------------------------------------------
def _monitor(events=None, *, workers=2, clock=None, total=4):
    clk = clock or FakeClock()
    mon = FleetMonitor(
        "feedbeeffeedbeef",
        workers=workers,
        heartbeat_interval_s=1.0,
        event_sink=None if events is None else events.append,
        clock=clk,
    )
    mon.begin(total=total, name="fleet-test")
    return mon, clk


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestFleetMonitor:
    def test_queued_started_done_lifecycle(self, tiny_spec):
        events: list[dict] = []
        mon, clk = _monitor(events)
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        mon.cell_queued(cell, 1)
        clk.t += 0.5
        mon.on_event(
            cell_event(mon.run_id, "started", cell.label, cid, 77, 1, ts=clk.t)
        )
        clk.t += 2.0
        mon.on_event(
            cell_event(
                mon.run_id, "finished", cell.label, cid, 77, 1,
                ts=clk.t, elapsed_s=2.0,
            )
        )
        mon.cell_done(CellResult(cell=cell, status="ran", elapsed_s=2.0))
        snap = mon.snapshot()
        assert snap["done"] == 1 and snap["ran"] == 1
        assert snap["queue_wait_s"] == pytest.approx(0.5)
        assert snap["compute_s"] == pytest.approx(2.0)
        (row,) = snap["worker_rows"]
        assert row["worker"] == 77 and row["done"] == 1 and row["state"] == "idle"
        # exactly one terminal event, from the parent's outcome
        assert [e["event"] for e in events] == ["queued", "started", "finished"]

    def test_worker_parent_race_emits_one_terminal_event(self, tiny_spec):
        """cell_done and the worker's finished event must not double-emit."""
        events: list[dict] = []
        mon, _ = _monitor(events)
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        # parent's future completes before the drainer sees the event
        mon.cell_done(CellResult(cell=cell, status="ran", elapsed_s=1.0))
        mon.on_event(
            cell_event(
                mon.run_id, "finished", cell.label, cid, 77, 1, elapsed_s=1.0
            )
        )
        terminal = [e for e in events if e["event"] == "finished"]
        assert len(terminal) == 1
        # the late worker event still credits the worker's aggregates
        assert mon.snapshot()["worker_rows"][0]["done"] == 1
        # ...but the cell's ran seconds are not double-counted
        assert mon.snapshot()["compute_s"] == pytest.approx(1.0)

    def test_cached_cell_banks_its_original_cost(self, tiny_spec):
        events: list[dict] = []
        mon, _ = _monitor(events)
        cell = tiny_spec.cells()[0]
        mon.cell_done(CellResult(cell=cell, status="cached", elapsed_s=3.5))
        snap = mon.snapshot()
        assert snap["cached"] == 1
        assert snap["banked_s"] == pytest.approx(3.5)
        assert snap["compute_s"] == 0.0
        assert events[-1]["event"] == "cached"

    def test_failed_attempts_accumulate_wasted_seconds(self, tiny_spec):
        events: list[dict] = []
        mon, clk = _monitor(events)
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        for attempt in (1, 2):
            mon.cell_queued(cell, attempt)
            mon.on_event(
                cell_event(
                    mon.run_id, "started", cell.label, cid, 77, attempt, ts=clk.t
                )
            )
            mon.on_event(
                cell_event(
                    mon.run_id, "failed", cell.label, cid, 77, attempt,
                    ts=clk.t, elapsed_s=0.5, error="RuntimeError: boom",
                )
            )
        mon.cell_done(
            CellResult(
                cell=cell, status="failed", elapsed_s=1.0, attempts=2,
                error="RuntimeError: boom",
            )
        )
        snap = mon.snapshot()
        assert snap["failed"] == 1
        assert snap["retries"] == 1
        assert snap["wasted_s"] == pytest.approx(1.0)
        assert snap["last_error"]["cell"] == cell.label
        assert snap["worker_rows"][0]["failed_attempts"] == 2
        assert [e["event"] for e in events].count("failed") == 1

    def test_eta_extrapolates_from_ran_cells(self, tiny_spec):
        mon, _ = _monitor(total=4, workers=2)
        assert mon.snapshot()["eta_s"] is None  # no evidence yet
        cell = tiny_spec.cells()[0]
        mon.cell_done(CellResult(cell=cell, status="ran", elapsed_s=1.0))
        # 3 remaining x 1.0s avg / 2 workers
        assert mon.snapshot()["eta_s"] == pytest.approx(1.5)

    def test_eta_is_zero_when_complete(self, tiny_spec):
        mon, _ = _monitor(total=1)
        mon.cell_done(
            CellResult(cell=tiny_spec.cells()[0], status="ran", elapsed_s=1.0)
        )
        assert mon.snapshot()["eta_s"] == 0.0

    def test_heartbeat_gap_counts_only_while_busy(self, tiny_spec):
        mon, clk = _monitor()
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)

        def beat():
            mon.on_heartbeat(
                {"ts": clk.t, "run_id": mon.run_id, "worker": 77,
                 "rss_bytes": 1 << 20, "cell": None, "cell_id": None,
                 "cell_elapsed_s": None}
            )

        beat()
        clk.t += 20.0  # idle silence: not a gap
        beat()
        assert mon.snapshot()["worker_rows"][0]["heartbeats"] == 2
        mon.on_event(
            cell_event(mon.run_id, "started", cell.label, cid, 77, 1, ts=clk.t)
        )
        clk.t += 7.0  # busy silence: the gap the detector wants
        beat()
        mon.finalize()
        manifest = mon.manifest()
        (w,) = manifest.worker_rows
        assert w.max_heartbeat_gap_s == pytest.approx(7.0)
        assert w.max_rss_bytes == 1 << 20

    def test_finalize_adds_the_terminal_gap_of_a_hung_worker(self, tiny_spec):
        mon, clk = _monitor()
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        mon.on_heartbeat(
            {"ts": clk.t, "run_id": mon.run_id, "worker": 99, "rss_bytes": 0,
             "cell": None, "cell_id": None, "cell_elapsed_s": None}
        )
        mon.on_event(
            cell_event(mon.run_id, "started", cell.label, cid, 99, 1, ts=clk.t)
        )
        clk.t += 42.0  # worker dies silently mid-cell
        mon.finalize()
        manifest = mon.manifest()
        assert manifest.worker_rows[0].max_heartbeat_gap_s == pytest.approx(42.0)
        # the cell it held is recorded as still running
        assert manifest.cell(cell.label).status == "running"

    def test_manifest_snapshots_the_counters(self, tiny_spec):
        mon, clk = _monitor(total=2)
        cells = tiny_spec.cells()[:2]
        mon.cell_done(CellResult(cell=cells[0], status="ran", elapsed_s=1.0))
        mon.cell_done(CellResult(cell=cells[1], status="cached", elapsed_s=2.0))
        clk.t += 10.0
        mon.finalize()
        manifest = mon.manifest(store_overwrites=3)
        assert manifest.run_id == mon.run_id
        assert manifest.name == "fleet-test"
        assert manifest.wall_s == pytest.approx(10.0)
        assert manifest.counters["ran"] == 1
        assert manifest.counters["cached"] == 1
        assert manifest.counters["banked_s"] == pytest.approx(2.0)
        assert manifest.counters["store_overwrites"] == 3
        assert {c.status for c in manifest.cells} == {"ran", "cached"}
        assert manifest.cell(cells[0].label).cell_id == (
            cell_correlation_id(cells[0])
        )


class TestLocalChannel:
    def test_serial_events_feed_the_monitor_directly(self, tiny_spec):
        events: list[dict] = []
        mon, _ = _monitor(events, workers=1)
        channel = LocalChannel(mon)
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        channel.cell_started(cell.label, cid, 1)
        channel.cell_finished(cell.label, cid, 1, 0.5)
        assert [e["event"] for e in events] == ["started"]
        assert mon.snapshot()["worker_rows"][0]["done"] == 1


class TestWorkerChannel:
    def test_events_and_heartbeats_reach_the_queue(self):
        q: queue_mod.Queue = queue_mod.Queue()
        channel = WorkerChannel(
            q, "feedbeeffeedbeef", heartbeat_interval_s=0.01
        )
        try:
            channel.cell_started("cell/FF", "c" * 16, 1)
            deadline = time.time() + 5.0
            kinds = set()
            while time.time() < deadline and "hb" not in kinds:
                kind, payload = q.get(timeout=5.0)
                kinds.add(kind)
                if kind == "hb":
                    assert payload["cell"] == "cell/FF"
                    assert payload["worker"] == channel.pid
            channel.cell_finished("cell/FF", "c" * 16, 1, 0.1)
            assert "hb" in kinds
        finally:
            channel.close()

    def test_puts_are_best_effort(self):
        class TornQueue:
            def put(self, item):
                raise OSError("parent is gone")

        channel = WorkerChannel(TornQueue(), "r" * 16, heartbeat_interval_s=0)
        channel.cell_started("cell/FF", "c" * 16, 1)  # must not raise
        channel.cell_finished("cell/FF", "c" * 16, 1, 0.1)
        channel.close()


def _die_holding_write_lock(queue) -> None:
    """A worker killed mid-write: the queue's write lock stays held."""
    queue._wlock.acquire()
    os._exit(1)


class TestDeadWriter:
    def test_pool_shutdown_survives_a_writer_killed_holding_the_lock(self):
        """Every later worker's feeder blocks on the orphaned lock; its
        exit must drop the backlog after a deadline, not join forever."""
        from repro.obs.logging import root_manager

        q = multiprocessing.Queue()
        killed = multiprocessing.Process(target=_die_holding_write_lock, args=(q,))
        killed.start()
        killed.join(timeout=30)
        assert killed.exitcode == 1
        t0 = time.perf_counter()
        with ProcessPoolExecutor(
            1,
            initializer=init_worker,
            initargs=(q, "r" * 16, root_manager().level, 0.01),
        ) as pool:
            pid = pool.submit(os.getpid).result(timeout=30)
            time.sleep(0.05)  # heartbeats now wait on the dead lock
        assert pid != os.getpid()
        assert time.perf_counter() - t0 < 30


class TestChannelDrainer:
    def test_drains_the_backlog_after_stop(self, tiny_spec):
        mon, _ = _monitor()
        cell = tiny_spec.cells()[0]
        cid = cell_correlation_id(cell)
        q: queue_mod.Queue = queue_mod.Queue()
        for attempt in (1, 2, 3):
            q.put(
                ("event",
                 cell_event(mon.run_id, "started", cell.label, cid, 7, attempt))
            )
        q.put(("bogus",))  # a torn message must not kill the loop
        q.put(
            ("event",
             cell_event(mon.run_id, "finished", cell.label, cid, 7, 3,
                        elapsed_s=0.2))
        )
        drainer = ChannelDrainer(q, mon)
        drainer.start()
        drainer.stop()
        assert not drainer.is_alive()
        assert mon.snapshot()["worker_rows"][0]["done"] == 1

    def test_forwarded_log_lines_are_counted(self):
        from repro.obs.logging import root_manager

        mon, _ = _monitor()
        manager = root_manager()
        saved = manager.sinks
        manager.sinks = []
        try:
            q: queue_mod.Queue = queue_mod.Queue()
            q.put(("log", '{"msg":"hello"}'))
            drainer = ChannelDrainer(q, mon)
            drainer.start()
            drainer.stop()
        finally:
            manager.sinks = saved
        assert mon.snapshot()["log_lines"] == 1
