"""Unit tests for simulated clocks and phase logs."""

import numpy as np
import pytest

from repro.cluster.simtime import ClockArray, Phase, PhaseLog


class TestClockArray:
    def test_starts_at_zero(self):
        c = ClockArray(4)
        assert c.now == 0.0
        assert c.min == 0.0

    def test_scalar_advance_moves_everyone(self):
        c = ClockArray(3)
        c.advance(2.0)
        assert np.allclose(c.times, 2.0)

    def test_vector_advance(self):
        c = ClockArray(3)
        c.advance([1.0, 2.0, 3.0])
        assert c.now == 3.0
        assert c.min == 1.0

    def test_synchronize_is_barrier(self):
        c = ClockArray(3)
        c.advance([1.0, 2.0, 3.0])
        t = c.synchronize(0.5)
        assert t == pytest.approx(3.5)
        assert np.allclose(c.times, 3.5)

    def test_advance_rank(self):
        c = ClockArray(2)
        c.advance_rank(1, 4.0)
        assert c.times[0] == 0.0
        assert c.times[1] == 4.0

    def test_rejects_negative_durations(self):
        c = ClockArray(2)
        with pytest.raises(ValueError):
            c.advance(-1.0)
        with pytest.raises(ValueError):
            c.advance_rank(0, -0.1)
        with pytest.raises(ValueError):
            c.synchronize(-0.1)

    def test_times_view_is_readonly(self):
        c = ClockArray(2)
        with pytest.raises(ValueError):
            c.times[0] = 5.0

    def test_copy_is_independent(self):
        c = ClockArray(2)
        c.advance(1.0)
        d = c.copy()
        d.advance(1.0)
        assert c.now == 1.0
        assert d.now == 2.0

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            ClockArray(0)


class TestPhase:
    def test_energy_is_power_times_duration(self):
        p = Phase("compute", 1.0, 3.0, 100.0)
        assert p.duration == pytest.approx(2.0)
        assert p.energy_j == pytest.approx(200.0)

    def test_rejects_backwards_interval(self):
        with pytest.raises(ValueError):
            Phase("x", 2.0, 1.0, 10.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Phase("x", 0.0, 1.0, -5.0)


class TestPhaseLog:
    def test_totals_by_tag(self):
        log = PhaseLog()
        log.add("compute", 0.0, 1.0, 100.0)
        log.add("ckpt", 1.0, 2.0, 50.0)
        log.add("compute", 2.0, 3.0, 100.0)
        assert log.total_energy() == pytest.approx(250.0)
        assert log.total_energy("compute") == pytest.approx(200.0)
        assert log.tags() == {"compute", "ckpt"}
        assert len(log) == 3

    def test_trace_samples_power(self):
        log = PhaseLog()
        log.add("a", 0.0, 1.0, 100.0)
        log.add("b", 1.0, 2.0, 50.0)
        times, watts = log.trace(dt=0.5)
        assert len(times) == 4
        assert watts[0] == pytest.approx(100.0)
        assert watts[-1] == pytest.approx(50.0)

    def test_trace_overlapping_phases_add(self):
        log = PhaseLog()
        log.add("primary", 0.0, 2.0, 100.0)
        log.add("replica", 0.0, 2.0, 100.0)
        _, watts = log.trace(dt=1.0)
        assert np.allclose(watts, 200.0)

    def test_trace_empty(self):
        times, watts = PhaseLog().trace(dt=0.1)
        assert times.size == 0 and watts.size == 0

    def test_trace_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PhaseLog().trace(dt=0.0)
