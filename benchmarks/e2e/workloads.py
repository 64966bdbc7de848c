"""The four workloads.

Each one builds its fixture (untimed), can time one fresh-process
launch, and can run one repetition: identical work from identical state,
driven only through the program's public entry points — ``run_campaign``
/ ``ResultStore`` / ``CampaignSpec``, ``Experiment``, and a real ``repro
serve`` child over loopback with ``ServeClient``.  A repetition returns
raw times; normalisation and medians are the runner's job.

``--seed`` decides the order of work (matrix/scheme/engine order of the
grids, each connection's walk over its cells) and becomes
``ExperimentConfig.seed`` — right-hand side and fault schedule —
wherever the timed work does not depend on it: the stored grid of
``resume_cached``, the served cells of ``serve_hot``, the never-seen
configs of ``serve_cold``.  The grid that ``sim_grid`` *solves* keeps
config seed 0: config seeds fall into two clusters of CG iterations
(crystm02 converges in ~0.9 n or in n iterations, by right-hand side),
14 % of the grid's wall time apart, and runs with different ``--seed``
must do the same amount of work to be comparable.
"""

from __future__ import annotations

import random
import resource
import shutil
import threading
import time
from pathlib import Path

from repro.campaign import CampaignSpec, ResultStore, cell_key, run_campaign
from repro.harness.experiment import Experiment
from repro.obs.spans import SpanRecorder
from repro.serve.app import parse_solve_request
from repro.serve.client import ServeError

import guards
import procs
from child import report_digest
from measure import Repetition
from tracing import CampaignTracer

#: The simulated grid: one banded slow-converging matrix, one irregular,
#: one stencil, under the fault-free baseline plus six recovery schemes
#: (the paper's LI/LSI/CR/RD, its F0 strawman, and ESR from
#: arXiv:1907.13077).
#:
#: Every workload sizes its repetition to ~0.9 s on the reference
#: machine — at least a second of wall time on this host even in its
#: fastest phases, 1.2-1.6 s most of the time — so that fifteen of them
#: fit the driver's wall-clock cap on a slow hour too.  For the grid
#: that is ``scale`` 0.75 (2 s at full scale).
GRID_MATRICES = ("crystm02", "ex15", "stencil5")
GRID_SCHEMES = ("F0", "LI", "LSI", "CR-D", "RD", "ESR")
GRID_SCALE = 0.75

#: The served cell family (the serving benchmark's own base request).
SERVE_BASE = {
    "matrix": "wathen100",
    "scale": 0.25,
    "nranks": 8,
    "n_faults": 2,
    "engine": "analytic",
}
SERVE_SCHEMES = ("FF", "RD", "F0", "LI", "LSI", "CR-D", "ESR", "ABCR")

#: One id for every campaign the benchmark runs, so the store's manifest
#: table holds one row however many passes have run.
RUN_ID = "bench"

CONNECTIONS = 2


def grid_spec_args(
    seed: int,
    *,
    quick: bool,
    engines=("sim",),
    trace: bool = False,
    config_seed: int = 0,
) -> dict:
    """``CampaignSpec`` keyword arguments (JSON-shaped) for the grid,
    its axes in the order ``seed`` gives them."""
    rng = random.Random(seed)
    matrices = list(("stencil5",) if quick else GRID_MATRICES)
    schemes = list(("LI", "ESR") if quick else GRID_SCHEMES)
    engines = list(engines)
    for axis in (matrices, schemes, engines):
        rng.shuffle(axis)
    return {
        "name": "grid",
        "matrices": matrices,
        "schemes": schemes,
        "engines": engines,
        "nranks": [16],
        "fault_loads": [10],
        "seeds": [config_seed],
        "scale": 0.25 if quick else GRID_SCALE,
        "trace": trace,
    }


class _DoneTimes:
    """Progress hook: which cell of a campaign finished when."""

    def __init__(self, tracer: CampaignTracer | None) -> None:
        self.tracer = tracer
        self.times: list[float] = []
        self.labels: list[str] = []

    def cell_done(self, result) -> None:
        if self.tracer is not None:
            self.tracer.close_cell()
        self.times.append(time.perf_counter())
        cell = result.cell
        self.labels.append(cell.label + ("/traced" if cell.config.trace else ""))


def _campaign_pass(spec, store, tracer):
    """One ``run_campaign`` call (inside a ``campaign.run`` span when
    traced); returns ``(result, labels, starts, seconds)`` per cell,
    where a cell's time runs from the previous cell's completion."""
    hook = _DoneTimes(tracer)
    t0 = time.perf_counter()
    if tracer is None:
        result = run_campaign(
            spec, store=store, max_workers=1, progress=hook, run_id=RUN_ID
        )
    else:
        with tracer.program_spans(), tracer.rec.span("campaign.run"):
            result = run_campaign(
                spec,
                store=store,
                max_workers=1,
                progress=hook,
                worker=tracer.worker,
                monitor=tracer.monitor(RUN_ID),
            )
    starts = [t0, *hook.times[:-1]]
    seconds = [done - start for start, done in zip(starts, hook.times)]
    return result, hook.labels, starts, seconds


def _ff_iterations(results) -> dict:
    return {
        r.cell.config: r.report.iterations
        for r in results
        if r.cell.is_baseline and r.report is not None
    }


class Workload:
    """What the runner needs from a workload."""

    name = ""

    def __init__(self, seed: int, scratch: Path, *, quick: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.quick = quick
        self.cache_dir = scratch / "cache"
        #: One recorder per traced repetition (per connection on the
        #: serve workloads), kept in memory until the run ends.
        self.recorders: list[SpanRecorder] = []
        #: ``sim_digest`` of the first repetition's answers.
        self.digest: str | None = None
        self.failures: list[str] = []

    @property
    def digest_name(self) -> str:
        """Which entry of ``golden.json`` the run's digest goes with:
        the seed picks the configs."""
        return f"{self.name}.seed{self.seed}"

    def build(self) -> None:
        """Build the fixture (untimed)."""

    def launch(self) -> float:
        """One fresh-process set-up; raw seconds."""
        raise NotImplementedError

    def entries_at_start(self):
        """What must read the same before every repetition."""
        raise NotImplementedError

    def repetition(self, traced: bool = False) -> Repetition:
        raise NotImplementedError

    def between(self) -> None:
        """Put the state back to where a repetition starts (untimed)."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop whatever ``build`` started."""

    # ------------------------------------------------------------------
    def _recorder(self, traced: bool) -> SpanRecorder | None:
        if not traced:
            return None
        recorder = SpanRecorder()
        self.recorders.append(recorder)
        return recorder

    def _count(self, problems) -> int:
        """Failed operations among ``problems`` (``None`` = fine)."""
        bad = [p for p in problems if p is not None]
        self.failures.extend(bad[: max(0, 20 - len(self.failures))])
        return len(bad)

    def _failed_or_all(self, rows: list[list], failed: int, total: int) -> int:
        """``failed``, or ``total`` when this repetition's simulated
        statistics are not the first repetition's: every one must
        reproduce them."""
        digest = guards.sim_digest(rows)
        if self.digest is None:
            self.digest = digest
        if digest == self.digest:
            return failed
        self._count(["simulated statistics differ between repetitions"])
        return total


# ----------------------------------------------------------------------
class SimGrid(Workload):
    """The simulated grid into a fresh empty store."""

    name = "sim_grid"

    @property
    def digest_name(self) -> str:
        return self.name  # the same solved grid under every seed

    def build(self) -> None:
        self.spec_args = grid_spec_args(self.seed, quick=self.quick)
        self.spec = CampaignSpec(**self.spec_args)
        self._store_dir = self.scratch / "grid-store"
        self._probe_dir = self.scratch / "probe-store"

    def launch(self) -> float:
        shutil.rmtree(self._probe_dir, ignore_errors=True)
        return procs.time_probe(
            {
                "spec": self.spec_args,
                "store": str(self._probe_dir),
                "build_experiment": True,
            },
            self.cache_dir,
        )

    def entries_at_start(self):
        if not self._store_dir.exists():
            return 0
        with ResultStore(self._store_dir) as store:
            return len(store)

    def repetition(self, traced: bool = False) -> Repetition:
        tracer = CampaignTracer(self._recorder(traced)) if traced else None
        store = (
            tracer.store(self._store_dir) if traced else ResultStore(self._store_dir)
        )
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            result, labels, starts, latencies = _campaign_pass(self.spec, store, tracer)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        finally:
            store.close()

        def verify() -> int:
            ff = _ff_iterations(result.results)
            failed = self._count(
                guards.cell_result_problem(
                    r, status="ran", ff_iterations=ff.get(r.cell.config)
                )
                for r in result.results
            )
            rows = [
                guards.digest_row(r.cell.label, r.report)
                for r in result.results
                if r.report is not None
            ]
            return self._failed_or_all(rows, failed, len(result.results))

        return Repetition(
            wall_s=wall,
            t_start=t0,
            latencies_s=latencies,
            starts_s=starts,
            labels=labels,
            attempted=len(result.results),
            cpu_s=cpu,
            verify=verify,
        )

    def between(self) -> None:
        shutil.rmtree(self._store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
class ResumeCached(Workload):
    """Resume passes over a store that already holds every cell."""

    name = "resume_cached"
    _store = None

    def build(self) -> None:
        self.passes = 2 if self.quick else 15
        self.spec_args = [
            grid_spec_args(
                self.seed,
                quick=self.quick,
                engines=("sim", "analytic"),
                trace=trace,
                config_seed=self.seed,
            )
            for trace in (False, True)
        ]
        self.specs = [CampaignSpec(**args) for args in self.spec_args]
        self._store_dir = self.scratch / "resume-store"
        self.expected = procs.run_child(
            "populate",
            {"store": str(self._store_dir), "specs": self.spec_args},
            self.cache_dir,
        )
        self._store = ResultStore(self._store_dir)

    def launch(self) -> float:
        return procs.time_probe(
            {
                "spec": self.spec_args[0],
                "store": str(self._store_dir),
                "build_experiment": False,
            },
            self.cache_dir,
        )

    def entries_at_start(self):
        return len(self._store), len(self._store.manifests())

    def repetition(self, traced: bool = False) -> Repetition:
        tracer = CampaignTracer(self._recorder(traced)) if traced else None
        # A traced repetition reads through its own (span-wrapping) handle.
        store = tracer.store(self._store_dir) if traced else self._store
        latencies: list[float] = []
        starts: list[float] = []
        labels: list[str] = []
        not_cached = 0
        last = []
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            for _ in range(self.passes):
                last = []
                for spec in self.specs:
                    result, names, began, lat = _campaign_pass(spec, store, tracer)
                    latencies += lat
                    starts += began
                    labels += names
                    not_cached += len(result.results) - result.n_cached
                    last += result.results
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        finally:
            if traced:
                store.close()

        def verify() -> int:
            # Tier and invariants on the last pass, and its reports must
            # be exactly what the fixture builder put; earlier passes only
            # need every cell to have come back cached.
            ff = _ff_iterations(last)
            problems = []
            for r in last:
                problem = guards.cell_result_problem(
                    r, status="cached", ff_iterations=ff.get(r.cell.config)
                )
                if problem is None and report_digest(r.report) != self.expected.get(
                    cell_key(r.cell)
                ):
                    problem = f"{r.cell.label}: resume returned another report than was put"
                problems.append(problem)
            failed = self._count(problems)
            earlier = not_cached - sum(r.status != "cached" for r in last)
            failed += self._count(["cell not served from the store"] * earlier)
            rows = [guards.digest_row(r.cell.label, r.report) for r in last if r.report]
            return self._failed_or_all(rows, failed, len(latencies))

        return Repetition(
            wall_s=wall,
            t_start=t0,
            latencies_s=latencies,
            starts_s=starts,
            labels=labels,
            attempted=len(latencies),
            cpu_s=cpu,
            verify=verify,
        )

    def close(self) -> None:
        if self._store is not None:
            self._store.close()


# ----------------------------------------------------------------------
class Request:
    """One ``/v1/solve`` body with what a correct reply must carry."""

    def __init__(self, fields: dict) -> None:
        self.fields = fields
        self.cell = parse_solve_request(dict(fields))
        self.key = cell_key(self.cell)
        #: Wire form of a direct ``Experiment.run``, where computed.
        self.expected: dict | None = None


def compute_references(requests: list[Request]) -> None:
    """Fill ``expected`` from direct in-process ``Experiment.run`` calls
    (one ``Experiment`` per config, as ``run_suite`` does)."""
    experiments: dict = {}
    for request in requests:
        config = request.cell.config
        if config not in experiments:
            experiments[config] = Experiment(config)
        request.expected = guards.wire_form(experiments[config].run(request.cell.scheme))


class _ServeWorkload(Workload):
    cache_size = 256
    server = _outside = None
    clients = ()

    def build(self) -> None:
        self._store_dir = self.scratch / "serve-store"
        self._serve_cache = self.scratch / "serve-cache"
        self._probe_dir = self.scratch / "probe-store"
        self.server = procs.ServeChild(
            self._store_dir, self._serve_cache, self.cache_size
        ).start()
        self.clients = [self.server.client() for _ in range(CONNECTIONS)]
        self._outside = ResultStore(self._store_dir)

    def launch(self) -> float:
        shutil.rmtree(self._probe_dir, ignore_errors=True)
        probe = procs.ServeChild(
            self._probe_dir, self.scratch / "probe-cache", self.cache_size
        )
        try:
            return probe.start().ready_s
        finally:
            probe.stop()

    def entries_at_start(self):
        return len(self._outside)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self._outside is not None:
            self._outside.close()
        if self.server is not None:
            self.server.stop()

    def stop_with_idle_connection(self) -> float:
        """SIGTERM the server while one keep-alive connection sits idle;
        returns the seconds until the process is gone."""
        for client in self.clients[1:]:
            client.close()
        return self.server.stop()

    def _drive(self, plans: list[list[Request]], traced: bool):
        """Closed loop: connection ``k`` sends ``plans[k]`` one request
        after the other.  Returns ``(start, wall, cpu, samples)`` with
        one ``(request, began, seconds, reply)`` per request sent."""
        recorders = [self._recorder(traced) for _ in plans]
        samples: list[list] = [[] for _ in plans]
        errors: list[BaseException] = []
        gate = threading.Barrier(len(plans) + 1)

        def connection(k: int) -> None:
            client, recorder, out = self.clients[k], recorders[k], samples[k]
            try:
                gate.wait()
                for request in plans[k]:
                    t0 = time.perf_counter()
                    try:
                        if recorder is None:
                            reply = client.solve(**request.fields)
                        else:
                            with recorder.span(
                                "serve.client.solve", cell=request.key[:16]
                            ):
                                reply = client.solve(**request.fields)
                    except (ServeError, OSError, ValueError) as exc:
                        reply = {"error": f"{type(exc).__name__}: {exc}"}
                    out.append((request, t0, time.perf_counter() - t0, reply))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
                gate.abort()

        threads = [
            threading.Thread(target=connection, args=(k,), daemon=True)
            for k in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        cpu0 = self.server.cpu_s()
        gate.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        cpu = self.server.cpu_s() - cpu0
        if errors:
            raise errors[0]
        return t0, wall, cpu, [s for per_conn in samples for s in per_conn]

    def _repetition(
        self, plans, traced: bool, tier: str, references=()
    ) -> Repetition:
        t0, wall, cpu, samples = self._drive(plans, traced)

        def verify() -> int:
            compute_references(references)
            if self.digest is None:
                rows = {
                    request.key: guards.digest_row(request.cell.label, reply["report"])
                    for request, _, _, reply in samples
                    if "report" in reply
                }
                self.digest = guards.sim_digest(list(rows.values()))
            return self._count(
                guards.reply_problem(
                    reply,
                    tier=tier,
                    key=request.key,
                    scheme=request.cell.scheme,
                    expected=request.expected,
                )
                for request, _, _, reply in samples
            )

        return Repetition(
            wall_s=wall,
            t_start=t0,
            latencies_s=[seconds for _, _, seconds, _ in samples],
            starts_s=[began for _, began, _, _ in samples],
            labels=[request.key for request, _, _, _ in samples],
            attempted=len(samples),
            cpu_s=cpu,
            verify=verify,
        )


def hot_requests(seed: int, n: int) -> list[Request]:
    """``n`` schemes x ``n`` config seeds of the served family; the
    config seeds are ``seed``'s own."""
    return [
        Request({**SERVE_BASE, "scheme": scheme, "seed": config_seed})
        for config_seed in range(seed * n, (seed + 1) * n)
        for scheme in SERVE_SCHEMES[:n]
    ]


def hot_plans(seed: int, requests: list[Request], walks: int) -> list[list[Request]]:
    """Each connection walks its own fixed seeded order over every cell,
    ``walks`` times; no shared counter, so the two never synchronise."""
    plans = []
    for k in range(CONNECTIONS):
        order = list(requests)
        random.Random(f"{seed}-{k}").shuffle(order)
        plans.append(order * walks)
    return plans


def cold_plans(seed: int, rep: int, per_rep: int) -> list[list[Request]]:
    """Repetition ``rep``'s requests: config seeds no repetition of any
    run has used (so the fault-free solve behind each analytic cell is
    real work), one scheme each (so nothing coalesces or shares a
    micro-batch), split over the connections in a seeded order."""
    first = 1 + (seed * 100_000 + rep) * per_rep
    requests = [
        Request(
            {
                **SERVE_BASE,
                "scheme": SERVE_SCHEMES[(i + rep) % len(SERVE_SCHEMES)],
                "seed": first + i,
            }
        )
        for i in range(per_rep)
    ]
    random.Random(f"{seed}-{rep}").shuffle(requests)
    share = per_rep // CONNECTIONS
    return [requests[k * share : (k + 1) * share] for k in range(CONNECTIONS)]


class ServeHot(_ServeWorkload):
    """Every request is answered from the server's LRU."""

    name = "serve_hot"

    def build(self) -> None:
        super().build()
        self.requests = hot_requests(self.seed, 4 if self.quick else 8)
        compute_references(self.requests)
        warm = self._repetition([self.requests], False, "computed")
        warm.check()
        if warm.failed:
            raise RuntimeError(f"pre-warm failed: {self.failures}")
        self.digest = None
        self.plans = hot_plans(self.seed, self.requests, 2 if self.quick else 14)

    def repetition(self, traced: bool = False) -> Repetition:
        return self._repetition(self.plans, traced, "lru")


class ServeCold(_ServeWorkload):
    """Every request is a config the server has never seen."""

    name = "serve_cold"
    cache_size = 32

    def build(self) -> None:
        super().build()
        self.per_rep = 8 if self.quick else 120
        self._rep = 0

    def repetition(self, traced: bool = False) -> Repetition:
        plans = cold_plans(self.seed, self._rep, self.per_rep)
        self._rep += 1
        # Every reply is checked for tier, key and convergence; an eighth
        # of them, picked by the seed, also against a direct
        # ``Experiment.run`` (a full check would double the run's compute).
        sampled = [
            r for plan in plans for r in plan if r.fields["seed"] % 8 == self.seed % 8
        ]
        return self._repetition(plans, traced, "computed", references=sampled)

    def between(self) -> None:
        # Same warm process, empty store: drop the stored cells and the
        # per-seed convergence horizons the server cached on disk.
        self._outside.clear()
        for path in (self._serve_cache / "problems").glob("horizon-*.npz"):
            path.unlink()


WORKLOADS = {w.name: w for w in (SimGrid, ResumeCached, ServeHot, ServeCold)}
