"""Where the benchmark lives on disk and the child processes it starts.

Everything the benchmark writes goes under ``benchmarks/e2e/out/`` in
its own checkout (git-ignored; the driver's contract allows no write
outside the checkout): one temporary directory per run, removed on exit,
plus the span files a traced run leaves behind.  Children — the
calibration sampler, set-up probes, the fixture builder, ``repro serve``
— get ``src`` on ``PYTHONPATH`` and ``REPRO_CACHE_DIR`` inside the run's
directory, run in their own process group, and are killed from
``finally``/``atexit`` so an interrupted run leaves nothing behind.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

_live: set[subprocess.Popen] = set()


def require_program() -> None:
    """Exit non-zero unless the program's source is in this checkout."""
    if not (SRC / "repro" / "cli.py").is_file():
        sys.exit(
            f"benchmarks/e2e: no program to measure — {SRC / 'repro'} is "
            "missing; run from a full checkout of the repository"
        )


def scratch_dir() -> Path:
    """A fresh per-run temporary directory under ``out/``, removed at
    exit.  A run that was SIGKILLed could not remove its own, so the
    directories of processes that no longer exist are swept first."""
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("run-*"):
        pid = stale.name.split("-")[1]
        if pid.isdigit() and not Path(f"/proc/{pid}").exists():
            shutil.rmtree(stale, ignore_errors=True)
    path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _spawn(argv: list[str], cache_dir: Path, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(
        argv,
        env=child_env(cache_dir),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
        text=True,
        **kwargs,
    )
    _live.add(proc)
    return proc


def reap(proc: subprocess.Popen, *, grace_s: float = 10.0) -> float:
    """SIGTERM the child's process group, escalate to SIGKILL, wait.
    Returns the seconds from the signal to the exit."""
    t0 = time.perf_counter()
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    elapsed = time.perf_counter() - t0
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    _live.discard(proc)
    return elapsed


@atexit.register
def _reap_all() -> None:
    for proc in list(_live):
        reap(proc, grace_s=2.0)


def pin_to_one_cpu() -> set[int]:
    """Pin this process — and every child it starts from now on — to one
    CPU; returns the mask it had before.

    A 2-vCPU guest does not always have two CPUs' worth of host time:
    with the server and its clients on different vCPUs the serve
    workloads ran at anything from one to two cores' throughput from one
    minute to the next, which no single-threaded calibration kernel can
    see.  On one CPU the kernel, the program and the load generator all
    share the same, measured, core.
    """
    if not hasattr(os, "sched_setaffinity"):
        return set()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks and the
    ``atexit`` reaper run when the benchmark itself is told to stop."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))


def run_child(mode: str, args: dict, cache_dir: Path) -> dict:
    """Run ``child.py <mode>`` to completion; returns its JSON answer."""
    proc = _spawn(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(args)],
        cache_dir,
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode!r} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])
    finally:
        reap(proc)


def time_probe(args: dict, cache_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter until ``child.py
    probe`` reports that it is ready for its first unit of work."""
    t0 = time.perf_counter()
    proc = _spawn(
        [sys.executable, str(HERE / "child.py"), "probe", json.dumps(args)],
        cache_dir,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        proc.wait(timeout=30)
        return elapsed
    finally:
        reap(proc)


class Sampler:
    """The calibration sampler (``calib.py``) as a child on this
    process's CPU, logging kernel slices to a file in ``scratch``."""

    def __init__(self, scratch: Path) -> None:
        self.path = scratch / "calib-slices.txt"
        self.path.touch()
        self.proc = _spawn(
            [sys.executable, str(HERE / "calib.py"), str(self.path)],
            scratch / "cache",
            stdout=subprocess.DEVNULL,
        )

    def timeline(self) -> calib.Timeline:
        """Every slice logged so far."""
        if self.proc.poll() is not None:
            raise RuntimeError(f"calibration sampler exited {self.proc.returncode}")
        return calib.Timeline.read(self.path)

    def wait_until_sampling(self, timeout_s: float = 20.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while len(self.timeline().starts) < calib.MIN_SLICES:
            if time.perf_counter() > deadline:
                raise RuntimeError("calibration sampler logged nothing")
            time.sleep(0.02)

    def stop(self) -> None:
        reap(self.proc)


class ServeChild:
    """A real ``python -m repro.cli serve --port 0`` over loopback, with
    the CLI's defaults (info logging included; stderr is discarded)."""

    def __init__(self, store_dir: Path, cache_dir: Path, cache_size: int) -> None:
        self.store_dir = store_dir
        self.cache_dir = cache_dir
        self.cache_size = cache_size
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: Seconds from spawn to the first 200 from ``/healthz``.
        self.ready_s = 0.0

    def start(self) -> "ServeChild":
        from repro.serve.client import ServeClient

        t0 = time.perf_counter()
        self.proc = _spawn(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--store", str(self.store_dir),
                "--cache-size", str(self.cache_size),
            ],
            self.cache_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        line = self.proc.stdout.readline()
        try:
            self.port = int(line.split("http://127.0.0.1:", 1)[1].split()[0])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"repro serve did not come up: {line!r}") from None
        with ServeClient("127.0.0.1", self.port, timeout=30.0) as client:
            client.health()
        self.ready_s = time.perf_counter() - t0
        return self

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout=60.0)

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as f:
            return f.read()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        # utime and stime are fields 14 and 15; the command name (field
        # 2) may hold spaces, so count from its closing parenthesis.
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> float:
        if self.proc is None:
            return 0.0
        proc, self.proc = self.proc, None
        return reap(proc)

    def __enter__(self) -> "ServeChild":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
