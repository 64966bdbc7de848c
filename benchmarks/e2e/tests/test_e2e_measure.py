"""Median / quartile / percentile math."""

import statistics

import pytest

import calib
import measure
from measure import Repetition


def test_quartiles_are_the_drivers():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = measure.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert measure.spread(values) == pytest.approx((q3 - q1) / q2)


def test_single_value_has_no_spread():
    assert measure.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert measure.spread([7.0]) == 0.0


def test_central_is_a_median_that_does_not_jump():
    assert measure.central([5.0]) == 5.0
    assert measure.central(range(1, 101)) == pytest.approx(50.5)
    # two clusters with the middle in the gap: one sample more on either
    # side flips the median from one edge to the other
    low, high = [10.0] * 50, [20.0] * 50
    assert measure.median(low + high[:-2]) == 10.0
    assert measure.median(low[:-2] + high) == 20.0
    assert measure.central(low + high[:-2]) == pytest.approx(14.5, abs=0.6)
    assert measure.central(low[:-2] + high) == pytest.approx(15.5, abs=0.6)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([5.0], 99) == 5.0
    assert measure.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_disagreement_is_relative_to_the_smaller_reading():
    assert measure.disagreement(100.0, 110.0) == pytest.approx(0.10)
    assert measure.disagreement(110.0, 100.0) == pytest.approx(0.10)
    assert measure.disagreement(5.0, 5.0) == 0.0


class HalfSpeedHost(calib.Timeline):
    """The CPU runs at half the reference's speed, is never idle, and
    the sampler took 0.1 s of every unit."""

    def factor(self, t0, t1):
        return 0.5

    def sampler_s(self, t0, t1):
        return 0.1

    def idle_share(self, t0, t1):
        return 0.0


def test_throughput_counts_only_correct_answers_and_scales_time():
    rep = Repetition(wall_s=2.1, attempted=10, failed=2)
    rep.scale(HalfSpeedHost())
    assert measure.throughput([rep]) == pytest.approx([8.0])
    assert measure.throughput([rep], normalised=False) == pytest.approx([8 / 2.1])


def test_latencies_are_scaled_then_pooled():
    reps = [
        Repetition(wall_s=1.0, latencies_s=[0.3, 0.5], starts_s=[0.0, 0.3]),
        Repetition(wall_s=1.0, latencies_s=[0.7], starts_s=[5.0]),
    ]
    for rep in reps:
        rep.scale(HalfSpeedHost())
    assert measure.pooled_latencies_ms(reps) == pytest.approx([100.0, 200.0, 300.0])
    assert measure.pooled_latencies_ms(reps, normalised=False) == [300.0, 500.0, 700.0]
    assert measure.median(measure.pooled_latencies_ms(reps)) == pytest.approx(200.0)


def test_check_runs_the_deferred_verification_once():
    calls = []
    rep = Repetition(wall_s=1.0, attempted=4, verify=lambda: calls.append(1) or 3)
    rep.check()
    rep.check()
    assert rep.failed == 3 and rep.answered == 1 and calls == [1]
