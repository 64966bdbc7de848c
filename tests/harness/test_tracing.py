"""Tests for the structured event-tracing subsystem."""

import numpy as np
import pytest

from repro.core.recovery import make_scheme
from repro.core.solver import ResilientSolver
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.tracing import (
    CheckpointWritten,
    EventLog,
    FaultInjected,
    RecoveryApplied,
    SolverRestarted,
)
from repro.matrices.generators import banded_spd
from repro.obs.export import event_to_row
from tests.conftest import quick_config


class TestEventLog:
    def test_record_and_filter(self):
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0, victim_rank=2))
        log.record(RecoveryApplied(iteration=5, sim_time_s=1.5, scheme="LI"))
        log.record(SolverRestarted(iteration=5, sim_time_s=1.6))
        assert len(log) == 3
        assert len(log.faults) == 1
        assert len(log.recoveries) == 1
        assert len(log.restarts) == 1
        assert log.checkpoints == []

    def test_rejects_time_travel(self):
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=2.0))
        with pytest.raises(ValueError):
            log.record(RecoveryApplied(iteration=5, sim_time_s=1.0))

    def test_to_rows(self):
        log = EventLog()
        log.record(CheckpointWritten(iteration=10, sim_time_s=0.5, duration_s=0.01))
        rows = [event_to_row(e) for e in log.events]
        assert rows[0]["kind"] == "checkpoint"
        assert rows[0]["iteration"] == 10
        assert rows[0]["duration_s"] == 0.01

    def test_recovery_latency(self):
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        log.record(RecoveryApplied(iteration=5, sim_time_s=1.4))
        log.record(FaultInjected(iteration=9, sim_time_s=3.0))
        log.record(RecoveryApplied(iteration=9, sim_time_s=3.1))
        lat = log.recovery_latency_s()
        assert lat == [pytest.approx(0.4), pytest.approx(0.1)]

    def test_latency_fault_without_recovery(self):
        # An unrecovered fault (e.g. the run halted) contributes nothing.
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        assert log.recovery_latency_s() == []

    def test_latency_two_faults_before_one_recovery(self):
        # A wide-scope outage: both faults land before the single
        # recovery.  The recovery is attributed to the *first* pending
        # fault; the second fault goes unmatched.
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        log.record(FaultInjected(iteration=5, sim_time_s=2.0))
        log.record(RecoveryApplied(iteration=5, sim_time_s=3.0))
        assert log.recovery_latency_s() == [pytest.approx(2.0)]

    def test_latency_recovery_before_first_fault_is_skipped(self):
        # A recovery that precedes every fault (stale stream slice)
        # cannot be a response to one and must not produce a negative
        # latency.
        log = EventLog()
        log.record(RecoveryApplied(iteration=3, sim_time_s=0.5))
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        log.record(RecoveryApplied(iteration=5, sim_time_s=1.2))
        assert log.recovery_latency_s() == [pytest.approx(0.2)]

    def test_equal_timestamps_tolerated(self):
        # A fault and its zero-cost recovery share one simulated instant.
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        log.record(RecoveryApplied(iteration=5, sim_time_s=1.0))
        log.record(SolverRestarted(iteration=5, sim_time_s=1.0 - 1e-13))
        assert len(log) == 3
        assert log.recovery_latency_s() == [pytest.approx(0.0)]

    def test_beyond_slack_still_rejected(self):
        log = EventLog()
        log.record(FaultInjected(iteration=5, sim_time_s=1.0))
        with pytest.raises(ValueError):
            log.record(RecoveryApplied(iteration=5, sim_time_s=1.0 - 1e-9))

    def test_of_kind_index_survives_construction(self):
        # EventLog(events=[...]) must index preloaded events too.
        events = [
            FaultInjected(iteration=1, sim_time_s=1.0),
            RecoveryApplied(iteration=1, sim_time_s=1.1),
        ]
        log = EventLog(events=list(events))
        assert log.of_kind("fault") == [events[0]]
        log.record(FaultInjected(iteration=2, sim_time_s=2.0))
        assert len(log.of_kind("fault")) == 2

    def test_of_kind_returns_fresh_list(self):
        log = EventLog()
        log.record(FaultInjected(iteration=1, sim_time_s=1.0))
        log.of_kind("fault").clear()
        assert len(log.faults) == 1


@pytest.fixture(scope="module")
def traced_run():
    a = banded_spd(300, 7, dominance=5e-3, seed=1)
    b = a @ np.random.default_rng(1).standard_normal(300)
    return ResilientSolver(
        a,
        b,
        scheme=make_scheme("CR-M", interval_iters=10),
        schedule=EvenlySpacedSchedule(n_faults=3),
        config=quick_config(nranks=8, trace=True),
    ).solve()


class TestSolverIntegration:
    def test_trace_present_when_enabled(self, traced_run):
        assert "telemetry" in traced_run.details

    def test_trace_absent_by_default(self):
        a = banded_spd(100, 5, dominance=0.05, seed=0)
        rep = ResilientSolver(
            a, a @ np.ones(100), config=quick_config(nranks=4)
        ).solve()
        assert "telemetry" not in rep.details

    def test_fault_events_match_report(self, traced_run):
        trace = traced_run.details["telemetry"].events
        assert len(trace.faults) == traced_run.n_faults == 3
        assert [f.iteration for f in trace.faults] == [
            e.iteration for e in traced_run.faults
        ]

    def test_every_fault_has_a_recovery_and_restart(self, traced_run):
        trace = traced_run.details["telemetry"].events
        assert len(trace.recoveries) == 3
        assert len(trace.restarts) == 3
        assert all(r.scheme == "CR-M" for r in trace.recoveries)

    def test_checkpoints_recorded_with_durations(self, traced_run):
        trace = traced_run.details["telemetry"].events
        assert len(trace.checkpoints) > 0
        assert all(c.duration_s > 0 for c in trace.checkpoints)

    def test_event_times_monotone(self, traced_run):
        times = [e.sim_time_s for e in traced_run.details["telemetry"].events.events]
        assert times == sorted(times)

    def test_latencies_small_and_positive(self, traced_run):
        lat = traced_run.details["telemetry"].events.recovery_latency_s()
        assert len(lat) == 3
        assert all(v >= 0 for v in lat)

    def test_node_scope_counts_blocks(self):
        from repro.cluster.machine import MachineSpec, NodeSpec
        from repro.core.solver import SolverConfig
        from repro.faults.events import FaultScope
        from repro.faults.schedule import FixedIterationSchedule

        a = banded_spd(300, 7, dominance=5e-3, seed=1)
        b = a @ np.random.default_rng(1).standard_normal(300)
        rep = ResilientSolver(
            a,
            b,
            scheme=make_scheme("F0"),
            schedule=FixedIterationSchedule(
                iterations=[5], victims=[0], scope=FaultScope.NODE
            ),
            config=SolverConfig(
                nranks=8,
                machine=MachineSpec(
                    nodes=2, node=NodeSpec(sockets=1, cores_per_socket=4)
                ),
                trace=True,
            ),
        ).solve()
        trace = rep.details["telemetry"].events
        assert trace.faults[0].n_blocks_lost == 4
        assert len(trace.recoveries) == 4  # block-local scheme: one per block
