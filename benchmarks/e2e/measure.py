"""Order statistics and the per-repetition bookkeeping of a run."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)``
    gives them — the same call the driver uses for its spread check."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100): the smallest value
    with at least ``p`` % of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def central(values) -> float:
    """The mean of the central fifth (40th to 60th percentile) of a
    sample: a median that moves smoothly.  A grid's 21 cells differ
    tenfold and the middle of their pooled latencies is a gap between
    two cells, where the plain median jumps from one edge to the other
    (14 % apart) when the throughput moves by a fifth of a per cent."""
    ordered = sorted(values)
    lo = int(len(ordered) * 0.4)
    hi = max(lo + 1, math.ceil(len(ordered) * 0.6))
    return float(statistics.fmean(ordered[lo:hi]))


def summary(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def disagreement(a: float, b: float) -> float:
    """How far two readings of one metric are apart, as a share of the
    smaller — the A/A figure ``selfcheck`` holds against the bound."""
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else math.inf


@dataclass
class Repetition:
    """What one timed repetition produced, raw."""

    wall_s: float
    #: When the timed work began, on ``time.perf_counter``.
    t_start: float = 0.0
    #: Per-cell / per-request latencies in seconds, un-normalised, when
    #: each one began, and which cell each one belongs to.
    latencies_s: list[float] = field(default_factory=list)
    starts_s: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: CPU seconds the program's processes burned during the repetition.
    cpu_s: float = 0.0
    #: Checks the answers and returns how many were wrong; kept out of
    #: the timed work.
    verify: object = None
    #: ``wall_s`` and ``latencies_s`` in reference seconds; see ``scale``.
    reference_wall_s: float | None = None
    reference_latencies_s: list[float] | None = None

    def check(self) -> None:
        if self.verify is not None:
            self.failed, self.verify = self.verify(), None

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    def scale(self, timeline) -> None:
        """Fill in the reference-second fields from the calibration
        slices that ran beside the repetition.  Each latency is scaled
        by the slices around it, with the repetition's idle share (the
        idle counter is too coarse for a single cell)."""
        t0, t1 = self.t_start, self.t_start + self.wall_s
        idle = timeline.idle_share(t0, t1)
        self.reference_wall_s = timeline.reference_s(t0, t1, idle)
        self.reference_latencies_s = [
            timeline.reference_s(start, start + lat, idle)
            for start, lat in zip(self.starts_s, self.latencies_s)
        ]


def throughput(reps: list[Repetition], *, normalised: bool = True) -> list[float]:
    """Correct answers per second, one value per repetition."""
    return [
        r.answered / (r.reference_wall_s if normalised else r.wall_s) for r in reps
    ]


def pooled_latencies_ms(
    reps: list[Repetition], *, normalised: bool = True
) -> list[float]:
    """Every latency of every repetition, pooled."""
    return [
        lat * 1e3
        for r in reps
        for lat in (r.reference_latencies_s if normalised else r.latencies_s)
    ]
