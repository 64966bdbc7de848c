"""Lightweight metrics: counters, gauges, histograms with explicit buckets.

A :class:`MetricsRegistry` is a deterministic, in-process metrics sink
modelled on the Prometheus client's data model but with none of its
runtime machinery: instruments are keyed by ``(name, labels)``, values
are plain Python numbers, and :meth:`MetricsRegistry.snapshot` emits a
JSON-shaped dict whose ordering is fully determined by the recorded
data — so two runs that record the same values produce byte-identical
snapshots, which is what the campaign's serial-vs-parallel equality
check relies on.

Registries merge: a campaign rolls worker-side registries (one per
cell, shipped inside each report's telemetry) into one campaign-level
registry with :meth:`MetricsRegistry.merge_snapshot` — counters and
histograms add, gauges keep the last value written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Default histogram buckets: log-spaced upper bounds (seconds-ish).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

#: Default cap on distinct label sets per metric name (per instrument
#: family).  Every label axis we record is low-cardinality — phases,
#: schemes, statuses — so a run that approaches this is labelling by
#: something unbounded (rank ids, iterations) by mistake.
DEFAULT_MAX_LABEL_SETS = 128


class MetricsCardinalityError(ValueError):
    """A metric acquired more distinct label sets than the registry cap."""


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing total (float-valued)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Cumulative-bucket histogram with explicit upper bounds.

    ``buckets`` are finite upper bounds; an implicit +inf bucket catches
    the overflow, so ``counts`` has ``len(buckets) + 1`` slots.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        self.buckets = tuple(float(b) for b in self.buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("bucket bounds must be sorted ascending")
        if any(math.isinf(b) for b in self.buckets):
            raise ValueError("the +inf bucket is implicit; give finite bounds")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.n += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


@dataclass
class MetricsRegistry:
    """Deterministic registry of named, labelled instruments."""

    _counters: dict = field(default_factory=dict)
    _gauges: dict = field(default_factory=dict)
    _histograms: dict = field(default_factory=dict)
    #: Cap on distinct label sets per metric name within each instrument
    #: family; 0 disables the guard.
    max_label_sets: int = DEFAULT_MAX_LABEL_SETS
    #: Distinct label sets per ``(instrument family, metric name)``: what
    #: the cardinality guard compares against the cap, kept as a running
    #: count so creating a series does not rescan its table.
    _label_sets: dict = field(default_factory=dict, repr=False, compare=False)

    def _get_or_create(
        self, family: str, table: dict, name: str, labels: dict, make
    ):
        key = (name, _label_key(labels))
        inst = table.get(key)
        if inst is None:
            existing = self._label_sets.get((family, name), 0)
            if 0 < self.max_label_sets <= existing:
                offending = "{" + ", ".join(f"{k}={v!r}" for k, v in key[1]) + "}"
                raise MetricsCardinalityError(
                    f"metric {name!r} already has {existing} label sets "
                    f"(cap {self.max_label_sets}); rejected new label set "
                    f"{offending} — a label is carrying an unbounded "
                    "value (rank? iteration?)"
                )
            inst = table[key] = make()
            self._label_sets[family, name] = existing + 1
        return inst

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create("counter", self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create("gauge", self._gauges, name, labels, Gauge)

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            "histogram",
            self._histograms,
            name,
            labels,
            lambda: Histogram(buckets=buckets),
        )

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge ----------------------------------------------
    @staticmethod
    def _series_name(key) -> str:
        name, labels = key
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{inner}}}"

    def snapshot(self) -> dict:
        """JSON-shaped dump, ordering fixed by sorted series names."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(self._counters, key=self._series_name):
            out["counters"][self._series_name(key)] = self._counters[key].value
        for key in sorted(self._gauges, key=self._series_name):
            out["gauges"][self._series_name(key)] = self._gauges[key].value
        for key in sorted(self._histograms, key=self._series_name):
            h = self._histograms[key]
            out["histograms"][self._series_name(key)] = {
                "buckets": list(h.buckets),
                "counts": list(h.counts),
                "total": h.total,
                "n": h.n,
            }
        return out

    @staticmethod
    def _parse_series(series: str) -> tuple[str, dict[str, str]]:
        if not series.endswith("}"):
            return series, {}
        name, _, inner = series[:-1].partition("{")
        labels = dict(pair.split("=", 1) for pair in inner.split(",") if pair)
        return name, labels

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict in: counters/histograms add,
        gauges overwrite."""
        for series, value in snap.get("counters", {}).items():
            name, labels = self._parse_series(series)
            self.counter(name, **labels).inc(value)
        for series, value in snap.get("gauges", {}).items():
            name, labels = self._parse_series(series)
            self.gauge(name, **labels).set(value)
        for series, data in snap.get("histograms", {}).items():
            name, labels = self._parse_series(series)
            h = self.histogram(
                name, buckets=tuple(data["buckets"]), **labels
            )
            if h.buckets != tuple(data["buckets"]):
                raise ValueError(
                    f"bucket mismatch merging histogram {series!r}"
                )
            for i, c in enumerate(data["counts"]):
                h.counts[i] += c
            h.total += data["total"]
            h.n += data["n"]

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        reg = cls()
        reg.merge_snapshot(snap)
        return reg

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())


def counter_by_label(snap: dict, name: str, label: str) -> dict[str, int]:
    """Counter ``name`` in a :meth:`MetricsRegistry.snapshot`, summed
    over its series by the value of one ``label`` (``""`` where a series
    lacks it) — every other label is added up, not overwritten."""
    out: dict[str, int] = {}
    for series, value in snap.get("counters", {}).items():
        series_name, labels = MetricsRegistry._parse_series(series)
        if series_name == name:
            key = labels.get(label, "")
            out[key] = out.get(key, 0) + int(value)
    return out
