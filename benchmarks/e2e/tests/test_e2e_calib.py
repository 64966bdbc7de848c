"""The calibration kernel stands alone, the sampler keeps its duty cycle,
and normalisation cancels a slow-down that hits a repetition together
with the kernel slices that ran beside it."""

import ast
import subprocess
import sys
import time

import pytest

import calib
from conftest import E2E
from measure import Repetition, pooled_latencies_ms, throughput


def test_calib_module_imports_nothing_from_repro():
    tree = ast.parse((E2E / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {
        "__future__", "bisect", "os", "statistics", "sys", "time", "numpy", "scipy"
    }
    # and at run time, in a fresh interpreter, a kernel pass included
    code = (
        "import sys, numpy, calib; a = calib._banded_matrix(); "
        "x = numpy.linspace(1.0, 2.0, a.shape[0]); "
        "[calib.slice_work(a, x, s) for s in range(calib.SLICES)]; "
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]; "
        "sys.exit(1 if bad else 0)"
    )
    subprocess.run([sys.executable, "-c", code], cwd=E2E, check=True)


def test_sampler_process_logs_slices_of_a_few_milliseconds(tmp_path):
    log = tmp_path / "slices.txt"
    proc = subprocess.Popen([sys.executable, str(E2E / "calib.py"), str(log)])
    try:
        deadline = time.time() + 20
        while time.time() < deadline and proc.poll() is None:
            if log.exists() and len(log.read_text().splitlines()) >= 5:
                break
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
    timeline = calib.Timeline.read(log)
    assert len(timeline.starts) >= 4
    assert timeline.starts == sorted(timeline.starts)
    assert all(0.0003 < cpu < 0.2 for cpu in timeline.cpu_s)
    assert 0.005 < timeline.pass_s() < 1.0


def test_read_skips_a_line_the_sampler_is_still_writing(tmp_path):
    log = tmp_path / "slices.txt"
    log.write_text("1.0 0.0025 0.0030 0.00 0.50\n1.035 0.0025 0.0030 0.00 0.50\n1.07 0.0025 0.0030 0.00 0")
    assert calib.Timeline.read(log).starts == [1.0, 1.035]
    log.write_text("")
    assert calib.Timeline.read(log).starts == []


# -- a synthetic host ---------------------------------------------------
class FakeHost:
    """One CPU whose speed is ``rate(now)`` times the reference's, shared
    by the sampler and the program the way the real ones share theirs:
    the sampler wakes, runs one slice, sleeps nine times as long."""

    def __init__(self, rate):
        self.rate = rate
        self.now = 0.0
        self.slices = []  # (start, cpu_s, wall_s)
        self.next_wake = 0.0

    def _slice(self):
        cpu = calib.REF_SLICE_S * self.rate(self.now)
        self.slices.append((self.now, cpu, cpu))
        self.now += cpu
        self.next_wake = self.now + cpu * (1.0 / calib.DUTY - 1.0)

    def run(self, reference_s):
        """The program does ``reference_s`` of work; returns when it
        began and how long it took on the wall."""
        t0, left = self.now, reference_s
        while left > 1e-12:
            if self.now >= self.next_wake:
                self._slice()
                continue
            step = min(left * self.rate(self.now), self.next_wake - self.now, 0.001)
            left -= step / self.rate(self.now)
            self.now += step
        return t0, self.now - t0

    def idle(self, seconds):
        end = self.now + seconds
        while self.now < end:
            self.now = min(end, max(self.now, self.next_wake))
            if self.now >= self.next_wake:
                self._slice()

    def timeline(self):
        return calib.Timeline(*zip(*self.slices))


CELLS = (0.010, 0.030, 0.200, 0.760)


def run_reps(rate):
    host = FakeHost(rate)
    host.idle(0.2)
    reps, launches = [], []
    for _ in range(12):
        launches.append(host.run(0.5))
        t0 = host.now
        cells = [host.run(cost) for cost in CELLS]
        reps.append(
            Repetition(
                wall_s=host.now - t0,
                t_start=t0,
                latencies_s=[wall for _, wall in cells],
                starts_s=[start for start, _ in cells],
                labels=["a", "b", "c", "d"],
                attempted=len(CELLS),
            )
        )
        host.idle(0.05)
    timeline = host.timeline()
    for rep in reps:
        rep.scale(timeline)
    return reps, [timeline.reference_s(t0, t0 + wall) for t0, wall in launches]


def test_slowing_a_repetition_and_its_slices_leaves_normalised_metrics_alone():
    steady, steady_launches = run_reps(lambda now: 1.0)
    # 1.3x slower from 4 s to 9 s and, briefly, again later: the change
    # lands in the middle of some repetitions
    disturbed, launches = run_reps(
        lambda now: 1.3 if 4.0 < now < 9.0 or 14.0 < now < 14.4 else 1.0
    )
    raw = throughput(disturbed, normalised=False)
    assert max(raw) / min(raw) == pytest.approx(1.3, rel=0.02)
    for a, b in zip(throughput(steady), throughput(disturbed)):
        assert b == pytest.approx(a, rel=0.01)
    for a, b in zip(steady_launches, launches):
        assert b == pytest.approx(a, rel=0.01)
    # every cell's latency repeats too, except where the speed changed
    # inside one repetition: latencies take the repetition's factor
    steady_ms, disturbed_ms = pooled_latencies_ms(steady), pooled_latencies_ms(disturbed)
    close = [b == pytest.approx(a, rel=0.01) for a, b in zip(steady_ms, disturbed_ms)]
    assert sum(close) >= len(close) - 4 * len(CELLS)
    # reference seconds, with the sampler's share of the CPU taken out
    assert throughput(steady)[0] == pytest.approx(len(CELLS) / sum(CELLS), rel=0.01)
    assert steady_launches[0] == pytest.approx(0.5, rel=0.01)
    assert sorted(steady_ms)[:2] == pytest.approx([10.0, 10.0], rel=0.02)


def test_sample_loop_keeps_its_share_of_the_cpu():
    clock = {"now": 0.0, "cpu": 0.0, "slept": 0.0}
    emitted = []

    def work(s):
        clock["now"] += 0.004  # preempted half of the time
        clock["cpu"] += 0.002

    def sleep(seconds):
        clock["now"] += seconds
        clock["slept"] += seconds

    calib.sample_loop(
        lambda *row: emitted.append(row),
        work=work,
        clock=lambda: clock["now"],
        cpu_clock=lambda: clock["cpu"],
        sleep=sleep,
        n=20,
    )
    assert len(emitted) == 20
    assert emitted[1] == pytest.approx(
        (0.004 + 0.002 * (1 / calib.DUTY - 1), 0.002, 0.004)
    )
    assert clock["cpu"] / (clock["cpu"] + clock["slept"]) == pytest.approx(calib.DUTY)


# -- the arithmetic -----------------------------------------------------
def flat_timeline(steal_from=None):
    starts = [i * 0.035 for i in range(100)]
    steal = [0.0 if steal_from is None else max(0.0, 0.1 * (t - steal_from)) for t in starts]
    return calib.Timeline(starts, [0.005] * 100, [0.007] * 100, steal)


def test_factor_is_reference_over_measured_slice_time():
    assert flat_timeline().factor(1.0, 2.0) == pytest.approx(calib.REF_SLICE_S / 0.005)


def test_steal_counts_on_top_of_slice_time():
    # the host takes 10 % of the CPU from t = 2 s on
    timeline = flat_timeline(steal_from=2.0)
    assert timeline.factor(0.5, 1.5) == pytest.approx(calib.REF_SLICE_S / 0.005)
    assert timeline.factor(2.5, 3.3) == pytest.approx(0.9 * calib.REF_SLICE_S / 0.005)
    assert timeline.steal_share() == pytest.approx(0.1 * (99 * 0.035 - 2.0) / (99 * 0.035))


def test_idle_time_is_not_scaled():
    # a quarter of the time from t = 1 s on, the CPU has nothing to do
    starts = [i * 0.035 for i in range(100)]
    idle = [max(0.0, 0.25 * (t - 1.0)) for t in starts]
    half_speed = [2 * calib.REF_SLICE_S] * 100
    timeline = calib.Timeline(starts, half_speed, [0.0] * 100, None, idle)
    assert timeline.idle_share(0.1, 0.9) == 0.0
    assert timeline.idle_share(1.5, 2.5) == pytest.approx(0.25)
    assert timeline.reference_s(1.5, 2.5) == pytest.approx(0.75 * 0.5 + 0.25)
    # a cell inside the unit takes the unit's idle share, not its own
    assert timeline.reference_s(1.5, 1.6, 0.25) == pytest.approx(0.1 * (0.75 * 0.5 + 0.25))


def test_sampler_time_inside_a_unit_counts_by_overlap():
    timeline = flat_timeline()
    # slices start at 0.350, 0.385, ... and hold the CPU for 5 of 7 ms
    assert timeline.sampler_s(0.350, 0.420) == pytest.approx(2 * 0.005)
    assert timeline.sampler_s(0.3535, 0.385) == pytest.approx(0.0025)
    assert timeline.sampler_s(0.360, 0.380) == 0.0
    assert timeline.reference_s(0.350, 0.420) == pytest.approx(
        (0.070 - 0.010) * calib.REF_SLICE_S / 0.005
    )


def test_a_short_unit_still_rests_on_several_slices():
    timeline = calib.Timeline(
        [0.0, 0.035, 0.070, 0.105], [0.002, 0.004, 0.006, 0.008], [0.002] * 4, [0.0] * 4
    )
    # a 1 ms unit at t = 0.04 holds no slice: the two before, the two after
    assert timeline.factor(0.040, 0.041) == pytest.approx(calib.REF_SLICE_S / 0.005)


def test_a_dead_sampler_is_an_error_not_a_factor():
    timeline = flat_timeline()
    with pytest.raises(RuntimeError, match="sampler"):
        timeline.factor(10.0, 11.0)
    with pytest.raises(RuntimeError, match="sampler"):
        calib.Timeline().factor(0.0, 1.0)
