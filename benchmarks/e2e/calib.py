"""Calibration kernel, the sampler that runs it, and the normalisation
built on both.

Raw seconds do not repeat on a small shared VM: the same deterministic
work runs up to 1.5x slower whenever a neighbour is busy, the guest
rarely sees it as steal, and the speed changes within tenths of a
second.  A kernel sample taken only before and after a one-second
repetition predicts the kernel's *own* speed in between to no better
than 12 % (inter-quartile); a slice of it every 50 ms predicts it to
2 %.  So the kernel runs beside everything the benchmark times:
``python calib.py FILE`` is the **sampler**, a process of its own on the
same CPU as the program, which runs one slice, logs it, and sleeps
nineteen times as long.  That keeps it to a twentieth of the CPU
whatever the host's speed (a slice every 25-40 ms), and it spaces the
slices by work done rather than by time, which makes their plain mean
the exact scale for a unit during which the speed changed.

What a slice logs is when it started, the *CPU* seconds it took, the
wall seconds it took, and the CPU's cumulative steal and idle seconds.
CPU seconds are the speed signal: the sampler shares its CPU with the
program, so the wall time of a slice says how long the program held the
CPU, while the CPU time of fixed work says how fast the core is right
now.  Steal is the one slow-down CPU time does not show (the guest's
clock for a task stops while the host runs something else), so it is
counted separately.  Idle time is the part of a unit that no speed
factor applies to: a timer (the server's 2 ms batch window) takes as
long on a slow host as on a fast one.

A unit that ran from ``t0`` to ``t1`` had ``own = t1 - t0 - CPU seconds
the sampler used in between`` to itself and would have taken
``own * (busy * REF_SLICE_S / mean(slice CPU seconds) * (1 - steal
share) + idle)`` seconds "on the reference machine"
(``Timeline.reference_s``), with ``idle`` the share of the time the CPU
sat idle, ``busy`` the rest, all over the slices that started between
``t0`` and ``t1`` (and the nearest ones around a unit too short to hold
three).

The kernel imports nothing from ``repro`` (a test asserts it).  One pass
is 32 slices, ~40 ms on the reference machine; a slice is a
pure-Python arithmetic loop, dict/str churn, and scipy CSR matvecs on a
fixed 2.4k-row banded matrix.  That mix mirrors what the program spends
its time on (interpreter dispatch, JSON/dict work, sparse kernels), so
the kernel slows down when the program does; the three take equal
shares because no single one tracked all four workloads as well.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp

#: What one kernel pass takes on the reference machine: the 2-vCPU VM
#: this benchmark was defined on, at its fastest.  Normalised metrics
#: are only comparable between runs that share it.
REF_CALIB_S = 0.0400
SLICES = 32
REF_SLICE_S = REF_CALIB_S / SLICES

#: The sampler's share of its CPU.
DUTY = 0.05
#: ``Timeline.factor`` never rests on fewer slices than this.
MIN_SLICES = 3

_ROWS = 2400
_HALF_BAND = 11


def _banded_matrix() -> sp.csr_matrix:
    offsets = list(range(-_HALF_BAND, _HALF_BAND + 1))
    diagonals = [
        np.full(_ROWS - abs(k), 24.0 if k == 0 else -1.0 / (1 + abs(k)))
        for k in offsets
    ]
    return sp.diags(diagonals, offsets, format="csr")


def slice_work(a: sp.csr_matrix, x: np.ndarray, s: int) -> float:
    """The fixed work of slice ``s`` of a kernel pass; returns a
    checksum so nothing can be optimised away."""
    total = 0
    for i in range(7_000):
        total += (i * i) % 7
    table = {}
    for i in range(1_300):
        key = f"k{s}-{i}"
        table[key] = len(key) + i
    text = ",".join(table)
    y = x
    for _ in range(11):
        y = a @ y
        y = y / (1.0 + abs(y[0]))
    return total + len(text) + float(y[1])


def sample_loop(emit, *, work, clock, cpu_clock, sleep, n=None) -> None:
    """Run ``work(s)`` for s = 0, 1, ... (``n`` times, or for ever),
    calling ``emit(start, cpu_seconds, wall_seconds)`` after each and
    sleeping so that the work takes ``DUTY`` of the CPU."""
    s = 0
    while n is None or s < n:
        start, cpu0 = clock(), cpu_clock()
        work(s % SLICES)
        cpu_s = cpu_clock() - cpu0
        emit(start, cpu_s, clock() - start)
        sleep(cpu_s * (1.0 / DUTY - 1.0))
        s += 1


class Timeline:
    """Kernel slices on the machine-wide monotonic clock: when each one
    started, the CPU and wall seconds it took, and the CPU's cumulative
    steal and idle seconds when it ended."""

    def __init__(self, starts=(), cpu_s=(), wall_s=None, steal_s=None, idle_s=None):
        self.starts = list(starts)
        self.cpu_s = list(cpu_s)
        zeros = [0.0] * len(self.starts)
        self.wall_s = list(self.cpu_s if wall_s is None else wall_s)
        self.steal_s = list(zeros if steal_s is None else steal_s)
        self.idle_s = list(zeros if idle_s is None else idle_s)

    @classmethod
    def read(cls, path) -> "Timeline":
        """What the sampler has logged to ``path`` so far."""
        rows = []
        with open(path) as f:
            for line in f:
                fields = line.split()
                if len(fields) == 5 and line.endswith("\n"):
                    rows.append([float(v) for v in fields])
        return cls(*zip(*rows)) if rows else cls()

    def _around(self, t0: float, t1: float) -> tuple[int, int]:
        """Index range of the slices started between ``t0`` and ``t1``;
        when the unit was too short to hold ``MIN_SLICES`` of them, the
        nearest ones before and after it as well."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi - lo < MIN_SLICES or self.starts[hi - 1] < t0 - 1.0:
            raise RuntimeError(
                f"no calibration slices around [{t0:.3f}, {t1:.3f}]: "
                "the sampler is not running"
            )
        return lo, hi

    def _share(self, cumulative: list[float], lo: int, hi: int) -> float:
        span = self.starts[hi - 1] - self.starts[lo]
        return (cumulative[hi - 1] - cumulative[lo]) / span if span > 0 else 0.0

    def factor(self, t0: float, t1: float) -> float:
        """Seconds the program kept the CPU busy between ``t0`` and
        ``t1`` -> reference seconds."""
        lo, hi = self._around(t0, t1)
        stolen = self._share(self.steal_s, lo, hi)
        return REF_SLICE_S / statistics.fmean(self.cpu_s[lo:hi]) * (1.0 - stolen)

    def idle_share(self, t0: float, t1: float) -> float:
        """Share of the time around ``t0`` .. ``t1`` the CPU sat idle.
        The kernel counts it in ticks of 10 ms: ask for a second, not
        for a millisecond."""
        lo, hi = self._around(t0, t1)
        return min(1.0, max(0.0, self._share(self.idle_s, lo, hi)))

    def sampler_s(self, t0: float, t1: float) -> float:
        """CPU seconds the sampler itself used between ``t0`` and
        ``t1``; a slice that straddles an end counts by its share."""
        used = 0.0
        i = max(0, bisect.bisect_right(self.starts, t0) - 1)
        while i < len(self.starts) and self.starts[i] < t1:
            end = self.starts[i] + self.wall_s[i]
            inside = min(t1, end) - max(t0, self.starts[i])
            if inside > 0 and self.wall_s[i] > 0:
                used += self.cpu_s[i] * inside / self.wall_s[i]
            i += 1
        return used

    def reference_s(self, t0: float, t1: float, idle: float | None = None) -> float:
        """What a unit that ran from ``t0`` to ``t1`` would have taken
        on the reference machine with the CPU to itself; ``idle`` is the
        idle share to assume when the unit is too short to have its own."""
        if idle is None:
            idle = self.idle_share(t0, t1)
        own = t1 - t0 - self.sampler_s(t0, t1)
        return own * ((1.0 - idle) * self.factor(t0, t1) + idle)

    def pass_s(self) -> float:
        """What a whole kernel pass takes here: the median slice times
        ``SLICES``."""
        return statistics.median(self.cpu_s) * SLICES

    def steal_share(self) -> float:
        """Share of the whole timeline the host took from this CPU."""
        return self._share(self.steal_s, 0, len(self.starts))


def _steal_and_idle_s(cpu: int) -> tuple[float, float]:
    """Cumulative steal and idle (with I/O wait) seconds of CPU ``cpu``;
    zeros where unknown."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    ticks = [int(v) for v in line.split()[1:9]]
                    hz = os.sysconf("SC_CLK_TCK")
                    return ticks[7] / hz, (ticks[3] + ticks[4]) / hz
    except (OSError, IndexError, ValueError):
        pass
    return 0.0, 0.0


def main(path: str) -> None:
    """The sampler process: log slices to ``path`` until killed."""
    a, x = _banded_matrix(), np.linspace(1.0, 2.0, _ROWS)
    cpu = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    with open(path, "a") as log:

        def emit(start: float, cpu_s: float, wall_s: float) -> None:
            steal_s, idle_s = _steal_and_idle_s(cpu)
            log.write(f"{start:.6f} {cpu_s:.6f} {wall_s:.6f} {steal_s:.2f} {idle_s:.2f}\n")
            log.flush()

        sample_loop(
            emit,
            work=lambda s: slice_work(a, x, s),
            clock=time.perf_counter,
            cpu_clock=time.process_time,
            sleep=time.sleep,
        )


if __name__ == "__main__":
    main(sys.argv[1])
