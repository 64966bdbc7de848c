"""``BENCHMARK.json`` against the driver's limits, against what a run
really emits, and the hygiene of a run (nothing left behind)."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calib
import procs
import run
from conftest import E2E, ROOT
from measure import Repetition

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_py(*args, **kwargs):
    return subprocess.run(
        [sys.executable, str(E2E / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, **kwargs,
    )


def git_status():
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ).stdout


def children(*words):
    """Command lines of live processes this benchmark started — servers,
    set-up probes, the calibration sampler: each is handed a path under
    its ``out/`` directory — that hold every one of ``words``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        line = " ".join(argv)
        if str(E2E / "out") in line and all(word in line for word in words):
            found.append(line)
    return found


def serve_children():
    return children("repro.cli", "serve")


# -- the file itself ---------------------------------------------------
def test_keys_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_bounds():
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_the_drivers_whole_schedule_fits_its_cap():
    # 4 + 22 runs per workload within 3420 s, with a quarter of it to
    # spare: the driver refuses a schedule that only might not fit.
    # ``run_seconds`` cover launches, warm-ups and repetitions; around
    # them a run spends up to 10 s on start-up, the fixture, the
    # repetition under way when the time is up, and teardown.
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert 3420 / runs * 0.75 > CONTRACT["run_seconds"] + 10


# -- what a run emits ---------------------------------------------------
@pytest.fixture(scope="module")
def quick_runs():
    before = git_status()
    t0 = time.perf_counter()
    done = {
        w["name"]: run_py("--workload", w["name"], "--seed", "3", "--quick")
        for w in CONTRACT["workloads"]
    }
    return done, time.perf_counter() - t0, before


def test_quick_pass_emits_every_end_to_end_metric_with_its_unit(quick_runs):
    done, elapsed, _ = quick_runs
    assert elapsed < 15.0
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for name, proc in done.items():
        assert proc.returncode == 0, name
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # printed by name with the unit, and stationary
        for metric, unit in want.items():
            assert any(
                line.split()[:1] == [metric] and unit in line.split() for line in lines
            ), (name, metric)
        assert any("at the start of every repetition" in line for line in lines)


def test_quick_pass_leaves_nothing_behind(quick_runs):
    _, _, before = quick_runs
    assert children() == []
    assert not list((E2E / "out").glob("run-*"))
    if before is not None:
        assert git_status() == before


def test_scratch_of_a_killed_run_is_swept_by_the_next():
    stale = E2E / "out" / "run-4194304999-killed"  # no such pid
    (stale / "cache").mkdir(parents=True)
    fresh = procs.scratch_dir()
    try:
        assert fresh.is_dir() and not stale.exists()
    finally:
        shutil.rmtree(fresh)


def test_traced_quick_pass_emits_every_per_layer_metric_and_a_span_file():
    proc = run_py("--workload", "resume_cached", "--seed", "3", "--quick", "--trace", "1")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = json.loads((E2E / "out" / "spans-resume_cached-seed3.json").read_text())
    assert spans["summary"]["timebase"] == "wall"
    assert spans["summary"]["worst_cell_gap"] <= 0.05
    by_id = {row["id"]: row for row in spans["spans"]}
    for row in spans["spans"]:
        assert {"id", "parent", "name", "t_start", "t_end", "self_s", "cell"} <= set(row)
        if row["parent"] is not None:
            parent = by_id[row["parent"]]
            assert parent["t_start"] <= row["t_start"] and row["t_end"] <= parent["t_end"]
    for cell in spans["cells"].values():
        assert cell["self_sum_s"] == pytest.approx(cell["wall_s"], rel=0.05)
    assert children() == []


def test_exact_counts_repeat_between_traced_runs():
    values = []
    for _ in range(2):
        proc = run_py("--workload", "sim_grid", "--quick", "--layers")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        values.append([
            metrics[name]["value"]
            for name in (
                "core.iterations",
                "campaign.store.reads_per_cached_cell",
                "campaign.store.payload_kb_per_cell",
            )
        ])
    assert values[0] == values[1]


def test_unknown_workload_and_missing_program_exit_non_zero(tmp_path):
    assert run_py("--workload", "nope", stderr=subprocess.PIPE).returncode != 0
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(E2E), str(bare / "benchmarks" / "e2e")], check=True)
    subprocess.run(["cp", str(ROOT / "BENCHMARK.json"), str(bare)], check=True)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- stationarity -------------------------------------------------------
class FakeWorkload:
    name = "fake"

    def __init__(self, entries):
        self.entries = iter(entries)

    def build(self):
        pass

    def launch(self):
        return 0.5

    def entries_at_start(self):
        return next(self.entries)

    def repetition(self):
        return Repetition(
            wall_s=1.0, latencies_s=[0.5, 0.5], starts_s=[0.0, 0.5],
            labels=["a", "b"], attempted=2,
        )

    def between(self):
        pass

    def peak_rss_mb(self):
        return 1.0


class ReferenceHost(calib.Timeline):
    """Sampler and timeline of a host that is the reference machine."""

    def timeline(self):
        return self

    def factor(self, t0, t1):
        return 1.0

    def sampler_s(self, t0, t1):
        return 0.0

    def idle_share(self, t0, t1):
        return 0.0


@pytest.mark.parametrize("entries, correct", [([7, 7, 7], True), ([7, 8, 9], False)])
def test_a_store_that_grows_between_repetitions_is_flagged(entries, correct, capsys):
    shape = run.Shape(0, 1, 0, 3, 0.0, 1)
    result = run.measure_end_to_end(FakeWorkload(entries), shape, ReferenceHost())
    assert result["correct"] is correct
    assert result["metrics"]["cells_per_s"] == pytest.approx(2.0)
    assert result["metrics"]["cell_p50_ms"] == pytest.approx(500.0)
    assert result["metrics"]["setup_s"] == pytest.approx(0.5)
    assert ("NOT STATIONARY" in capsys.readouterr().out) is (not correct)


# -- interruption -------------------------------------------------------
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_mid_repetition_leaves_no_server_and_no_scratch(signum):
    before = git_status()
    proc = subprocess.Popen(
        [sys.executable, str(E2E / "run.py"), "--workload", "serve_hot", "--seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
    )
    try:
        deadline = time.time() + 60
        while not serve_children():
            assert time.time() < deadline and proc.poll() is None
            time.sleep(0.1)
        time.sleep(12.0)  # past fixture and launches: repetitions under way
        assert serve_children() and children("calib.py")
        proc.send_signal(signum)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.stdout.close()
    assert proc.returncode != 0
    assert children() == []
    assert not list((E2E / "out").glob("run-*"))
    if before is not None:
        assert git_status() == before
