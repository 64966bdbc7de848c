"""Tests for the metrics registry: instruments, snapshots, merging."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCardinalityError,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_keeps_last_value(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets_values(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # last slot is the +inf overflow
        assert h.n == 5
        assert h.total == pytest.approx(56.05)
        assert h.mean == pytest.approx(56.05 / 5)

    def test_histogram_boundary_is_inclusive(self):
        h = Histogram(buckets=(1.0,))
        h.observe(1.0)
        assert h.counts == [1, 0]

    def test_histogram_validates_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, float("inf")))


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        reg.counter("x", scheme="LI").inc()
        reg.counter("x", scheme="LI").inc()
        reg.counter("x", scheme="F0").inc()
        snap = reg.snapshot()
        assert snap["counters"] == {"x{scheme=F0}": 1.0, "x{scheme=LI}": 2.0}

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert reg.snapshot()["counters"] == {"x{a=1,b=2}": 2.0}

    def test_snapshot_is_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.gauge("zeta").set(1)
        reg.gauge("alpha").set(2)
        assert list(reg.snapshot()["gauges"]) == ["alpha", "zeta"]
        assert reg.snapshot() == reg.snapshot()

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc(3)
        reg.gauge("g").set(0.25)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("c").inc(2)
            reg.histogram("h", buckets=(1.0,)).observe(0.5)
            reg.gauge("g").set(7)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 4.0
        assert snap["histograms"]["h"]["counts"] == [2, 0]
        assert snap["histograms"]["h"]["n"] == 2
        assert snap["gauges"]["g"] == 7.0  # gauges overwrite, not add

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestCardinalityGuard:
    def test_cap_is_per_metric_name(self):
        reg = MetricsRegistry(max_label_sets=3)
        for i in range(3):
            reg.counter("ok", k=str(i)).inc()
        with pytest.raises(MetricsCardinalityError, match="cap 3"):
            reg.counter("ok", k="3").inc()
        # a different metric name has its own budget
        reg.counter("other", k="whatever").inc()

    def test_existing_series_stay_reachable_at_the_cap(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.counter("c", k="a").inc()
        reg.counter("c", k="b").inc()
        reg.counter("c", k="a").inc()  # touch, not create: allowed
        assert reg.snapshot()["counters"]["c{k=a}"] == 2.0

    def test_guard_covers_every_instrument_family(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("c", k="a").inc()
        reg.gauge("g", k="a").set(1)
        reg.histogram("h", buckets=(1.0,), k="a").observe(0.5)
        with pytest.raises(MetricsCardinalityError):
            reg.counter("c", k="b")
        with pytest.raises(MetricsCardinalityError):
            reg.gauge("g", k="b")
        with pytest.raises(MetricsCardinalityError):
            reg.histogram("h", buckets=(1.0,), k="b")

    def test_families_have_separate_budgets(self):
        # a counter and a gauge may share a name without colliding
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("x", k="a").inc()
        reg.gauge("x", k="b").set(1)

    def test_from_snapshot_admits_exactly_the_cap(self):
        cap = MetricsRegistry().max_label_sets
        snap = {"counters": {f"m{{k={i}}}": 1.0 for i in range(cap)}}
        reg = MetricsRegistry.from_snapshot(snap)
        assert len(reg.snapshot()["counters"]) == cap
        reg.merge_snapshot(snap)  # touching existing series stays allowed
        assert reg.snapshot()["counters"]["m{k=0}"] == 2.0

    def test_from_snapshot_rejects_one_series_past_the_cap(self):
        cap = MetricsRegistry().max_label_sets
        snap = {"counters": {f"m{{k={i}}}": 1.0 for i in range(cap + 1)}}
        with pytest.raises(
            MetricsCardinalityError, match=f"already has {cap} label sets"
        ):
            MetricsRegistry.from_snapshot(snap)

    def test_zero_cap_disables_the_guard(self):
        reg = MetricsRegistry(max_label_sets=0)
        for i in range(300):
            reg.counter("free", k=str(i)).inc()
        assert len(reg.snapshot()["counters"]) == 300
