"""Campaign execution: a fault-tolerant worker pool over cells.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into a
:class:`CampaignResult` in three stages:

1. **cache probe** — with ``resume`` on, every cell already in the
   :class:`~repro.campaign.store.ResultStore` is served from disk;
2. **baselines** — each experiment group's fault-free cell runs (in
   parallel across groups), because every scheme cell of the group
   normalizes against it and needs its iteration horizon;
3. **scheme cells** — run in parallel with the group's baseline report
   shipped along, so no worker ever repeats a baseline solve.

Workers are ``ProcessPoolExecutor`` processes executing
:func:`execute_cell`, a pure function of (cell, baseline): given the
explicit seeds in :class:`~repro.harness.experiment.ExperimentConfig`
the result is deterministic, so serial and parallel campaigns produce
identical reports.  A serial run (``max_workers=1``: plain in-process
calls — no pool, no pickling) does stages 2 and 3 one config at a time:
the config's baseline, then its scheme cells, all on one shared
Experiment (:class:`_SharedExperiments`).  The baseline solve records
the fault-free CG trajectory and every scheme solve installs from it
(:mod:`repro.core.trajectory`), so it is walked once per config; the
Experiment is dropped after the config's last cell, so one trajectory
memo is alive at a time.

Fault tolerance: each cell gets a wall-clock timeout (SIGALRM inside
the worker, so the pool survives) and bounded retries; a worker crash
(``BrokenProcessPool``) rebuilds the pool and re-queues the affected
cells with their retry budgets decremented.

Observability rides side-band (:mod:`repro.campaign.fleet`): every pool
is built with an initializer that hands its workers the write end of
the run's telemetry pipe — forwarded structured logs, per-cell
lifecycle events and heartbeats, one atomic frame each — which a
:class:`~repro.campaign.fleet.FleetMonitor` folds into the live
``--watch`` view and the persisted
:class:`~repro.campaign.manifest.RunManifest`.  None of it touches the
reports, so serial and parallel campaigns stay bit-identical with the
channel active.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial

from repro.campaign.fleet import (
    DEFAULT_HEARTBEAT_S,
    ChannelDrainer,
    FleetMonitor,
    LocalChannel,
    cell_correlation_id,
    init_worker,
    worker_channel,
)
from repro.campaign.manifest import RunManifest
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.report import SolveReport
from repro.harness.experiment import Experiment
from repro.obs.logging import bound_request_id, get_logger, root_manager
from repro.obs.telemetry import annotate_root_span

_log = get_logger("campaign.runner")


class _CellFailure(Exception):
    """A cell attempt that did not produce a report.

    Both constructor arguments live in ``args`` so the exception —
    elapsed included — survives pickling back from a pool worker, and
    the run manifest can attribute the compute the attempt wasted.
    """

    def __init__(self, message: str, elapsed_s: float = 0.0) -> None:
        super().__init__(message, elapsed_s)
        self.message = message
        #: Compute seconds burned before the attempt ended (wasted work).
        self.elapsed_s = elapsed_s

    def __str__(self) -> str:
        return self.message


class CellTimeout(_CellFailure):
    """A cell exceeded its per-cell wall-clock budget."""


class CellExecutionError(_CellFailure):
    """A cell's solve raised; :func:`execute_cell` wraps worker-side
    failures in this type."""


def _error_string(exc: BaseException) -> str:
    """The campaign-facing error string for a cell failure."""
    if isinstance(exc, _CellFailure):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _wasted_s(exc: BaseException) -> float:
    """Elapsed seconds an exception carries (0 for foreign types)."""
    try:
        return float(getattr(exc, "elapsed_s", 0.0))
    except (TypeError, ValueError):
        return 0.0


class _SharedExperiments:
    """The :class:`Experiment` of the config a serial run has in flight.

    A serial run takes one config at a time (:meth:`CampaignRunner.
    _run_config`) and holds one of these for it: the config's baseline
    and scheme cells all run on the one Experiment built on first use,
    so they share its fault-free trajectory memo
    (:mod:`repro.core.trajectory`).  The run drops it after the config's
    last cell — whether or not the baseline succeeded — and the
    Experiment and its memo go with it.
    """

    def __init__(self) -> None:
        self._live: dict = {}

    def get(self, config) -> Experiment:
        experiment = self._live.get(config)
        if experiment is None:
            experiment = self._live[config] = Experiment(config)
        return experiment


#: The in-flight config's Experiment in a serial run; unset everywhere
#: else (pool workers, direct calls), where every cell builds its own.
_shared_experiments: ContextVar[_SharedExperiments | None] = ContextVar(
    "repro_shared_experiments", default=None
)


def execute_cell(
    cell: CampaignCell,
    baseline: SolveReport | None = None,
    timeout_s: float | None = None,
) -> tuple[SolveReport, float]:
    """Run one cell to completion; the unit of work a pool worker executes.

    Returns ``(report, elapsed_seconds)``.  ``baseline`` primes the
    experiment's fault-free report so scheme cells skip the baseline
    solve.  Inside a serial campaign run the cell runs on its config's
    shared :class:`Experiment` (:class:`_SharedExperiments`);
    the report is bit-identical either way.  ``timeout_s`` arms a
    SIGALRM timer (POSIX) that aborts the cell with
    :class:`CellTimeout` without killing the worker.  Failures
    re-raise with the attempt's elapsed seconds attached
    (:class:`CellTimeout` / :class:`CellExecutionError`) so wasted
    compute is attributable even across the pool's pickle boundary.
    """
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    if use_alarm:

        def _on_alarm(signum, frame):
            raise CellTimeout(f"{cell.label} exceeded {timeout_s:g}s")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        outer, _ = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    shared = _shared_experiments.get()
    try:
        experiment = (
            shared.get(cell.config) if shared is not None else Experiment(cell.config)
        )
        if baseline is not None and not cell.is_baseline:
            experiment.prime_baseline(baseline)
        report = experiment.run(cell.scheme)
    except CellTimeout as exc:
        raise CellTimeout(str(exc), time.perf_counter() - t0) from None
    except Exception as exc:
        raise CellExecutionError(
            f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
        ) from exc
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if outer > 0:  # re-arm the caller's own deadline, if any
                spent = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, max(outer - spent, 1e-3))
    return report, time.perf_counter() - t0


def run_cell_in_worker(
    worker_fn,
    cell: CampaignCell,
    baseline: SolveReport | None,
    timeout_s: float | None,
    cell_id: str,
    attempt: int,
    channel=None,
):
    """Telemetry-wrapped cell execution; what the pool actually submits.

    Binds the ``<run_id>.<cell_id>`` request correlation id for the
    duration of the cell (every worker log record carries it), emits
    started/finished/failed lifecycle events over the channel, and
    otherwise behaves exactly like ``worker_fn`` — same return, same
    exceptions.  ``channel=None`` picks up the worker process's
    channel installed by the pool initializer; a worker invoked outside
    any campaign (no channel at all) degrades to a plain call.
    """
    if channel is None:
        channel = worker_channel()
    if channel is None:
        return worker_fn(cell, baseline, timeout_s)
    log = get_logger("campaign.worker")
    with bound_request_id(f"{channel.run_id}.{cell_id}"):
        channel.cell_started(cell.label, cell_id, attempt)
        try:
            report, elapsed = worker_fn(cell, baseline, timeout_s)
        except BaseException as exc:
            wasted = _wasted_s(exc)
            log.warning(
                "cell attempt failed",
                cell=cell.label,
                attempt=attempt,
                error=_error_string(exc),
                elapsed_s=round(wasted, 6),
            )
            channel.cell_finished(
                cell.label, cell_id, attempt, wasted, error=_error_string(exc)
            )
            raise
        log.debug(
            "cell computed",
            cell=cell.label,
            attempt=attempt,
            elapsed_s=round(elapsed, 6),
        )
        channel.cell_finished(cell.label, cell_id, attempt, elapsed)
        return report, elapsed


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell within a campaign."""

    cell: CampaignCell
    status: str  # "ran" | "cached" | "failed"
    report: SolveReport | None = None
    #: Compute seconds: measured for ran cells, banked (the original
    #: run's cost) for cached ones, total wasted seconds for failed ones.
    elapsed_s: float = 0.0
    attempts: int = 1
    error: str | None = None
    #: Compute seconds burned by failed attempts *before* the attempt
    #: that succeeded (0 unless the cell was retried).
    wasted_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ran", "cached")


@dataclass
class CampaignResult:
    """Everything a finished campaign knows about itself."""

    spec: CampaignSpec
    results: list[CellResult]
    wall_s: float
    workers: int
    #: The campaign run id (correlates logs, progress events, manifest).
    run_id: str = ""
    #: The fleet execution record persisted at campaign end.
    manifest: RunManifest | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self._by_cell = {r.cell: r for r in self.results}

    def __getitem__(self, cell: CampaignCell) -> CellResult:
        return self._by_cell[cell]

    @property
    def n_ran(self) -> int:
        return sum(r.status == "ran" for r in self.results)

    @property
    def n_cached(self) -> int:
        return sum(r.status == "cached" for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(r.status == "failed" for r in self.results)

    @property
    def compute_s(self) -> float:
        """Total compute seconds represented, including banked cache time."""
        return sum(r.elapsed_s for r in self.results if r.ok)

    def groups(self):
        """``(config, {scheme: report})`` per experiment group, in spec
        order, with only successful cells included."""
        out: dict = {}
        for r in self.results:
            if r.ok and r.report is not None:
                out.setdefault(r.cell.config, {})[r.cell.scheme] = r.report
        return list(out.items())

    def cell_telemetry(self) -> dict:
        """``{cell label: Telemetry}`` for every cell that recorded one."""
        out: dict = {}
        for r in self.results:
            if r.report is None:
                continue
            tel = r.report.details.get("telemetry")
            if tel is not None:
                out[r.cell.label] = tel
        return out

    def telemetry_rollup(self):
        """Campaign-level metrics registry (wall timebase).

        Merges every worker-side registry that came back inside a cell's
        report with the campaign's own counters: cells by status, cache
        hits/misses, retries, and throughput.  Worker metrics (sim-time
        recovery-latency histograms, per-phase energy counters, …) sum
        across cells; the campaign counters describe this run.
        """
        from repro.obs.metrics import MetricsRegistry

        rollup = MetricsRegistry()
        for r in self.results:
            rollup.counter("campaign.cells", status=r.status).inc()
            rollup.counter("campaign.retries").inc(max(0, r.attempts - 1))
            if r.status == "cached":
                rollup.counter("campaign.cache.hits").inc()
            elif r.status == "ran":
                rollup.counter("campaign.cache.misses").inc()
        if self.wall_s > 0:
            rollup.gauge("campaign.cells_per_sec").set(
                len(self.results) / self.wall_s
            )
        # Problem-setup cache traffic (matrix builds, halo analyses,
        # measured iteration costs).  The counters are process-local:
        # serial campaigns show the cross-cell reuse directly; with a
        # worker pool each worker keeps its own cache and only this
        # process's (mostly idle) counters appear here.
        from repro.matrices.cache import cache_stats

        for layer, stats in cache_stats().items():
            rollup.counter("problem_cache.hits", layer=layer).inc(stats["hits"])
            rollup.counter("problem_cache.misses", layer=layer).inc(stats["misses"])
        for tel in self.cell_telemetry().values():
            rollup.merge(tel.metrics)
        return rollup

    def run_records(self):
        """Successful cells as analysis :class:`~repro.obs.analysis.
        records.RunRecord` objects (label + report + config)."""
        from repro.obs.analysis.records import records_from_cells

        return records_from_cells(
            r for r in self.results if r.ok and r.report is not None
        )

    def attribution_summary(self):
        """``{scheme: PhaseAttribution}`` rollup: per-phase time/energy
        summed across every successful cell of each scheme, with the
        reconciliation residual carried along."""
        from repro.obs.analysis.attribution import attribute_record, scheme_rollup

        return scheme_rollup(attribute_record(r) for r in self.run_records())

    def anomalies(self, names=None):
        """Detector findings over every successful cell plus — when the
        run produced a manifest — the fleet-scoped detectors (see
        :mod:`repro.obs.analysis.detectors`); empty means healthy."""
        from repro.obs.analysis.detectors import run_detectors

        return run_detectors(self.run_records(), names, manifest=self.manifest)


@dataclass
class _Task:
    """A cell on its way to a result: what one attempt hands the next."""

    cell: CampaignCell
    baseline: SolveReport | None
    attempt: int = 1
    #: Compute seconds this cell's failed attempts have burned so far.
    wasted: float = 0.0
    #: Worker deaths that were provably this cell's (it ran alone).
    crashes: int = 0


class CampaignRunner:
    """Executes a spec against a store with a bounded-retry worker pool."""

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        store: ResultStore | None = None,
        max_workers: int = 1,
        timeout_s: float | None = None,
        retries: int = 1,
        resume: bool = True,
        progress=None,
        worker=execute_cell,
        run_id: str | None = None,
        monitor: FleetMonitor | None = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_S,
        event_sink=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        #: The cell-executing callable; injectable for tests and
        #: extensions, must be picklable for parallel runs.
        self.worker = worker
        self.spec = spec
        self.store = store
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.resume = resume
        self.progress = progress
        #: The fleet telemetry fold; build one unless the caller (the
        #: ``--watch`` CLI path) brought its own to render live.
        self.monitor = (
            monitor
            if monitor is not None
            else FleetMonitor(
                run_id,
                workers=max_workers,
                heartbeat_interval_s=heartbeat_interval_s,
                event_sink=event_sink,
            )
        )
        #: The telemetry pipe's write end while a pooled run is live.
        self._channel = None

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        t0 = time.perf_counter()
        cells = self.spec.cells()
        done: dict[CampaignCell, CellResult] = {}
        self.monitor.begin(
            total=len(cells), name=self.spec.name, workers=self.max_workers
        )
        # the counter itself, not stats(): stats() sizes every payload file
        overwrites0 = self.store.overwrites if self.store is not None else 0
        drainer = None
        if self.max_workers > 1:
            reader, self._channel = multiprocessing.Pipe(duplex=False)
            # a stalled parent drops telemetry instead of blocking a cell
            os.set_blocking(self._channel.fileno(), False)
            drainer = ChannelDrainer(reader, self.monitor)
            drainer.start()
        try:
            # stage 1: cache probe
            if self.resume and self.store is not None:
                for cell in cells:
                    entry = self.store.get_entry(cell)
                    if entry is not None:
                        done[cell] = self._emit(
                            CellResult(
                                cell,
                                "cached",
                                report=entry.report,
                                elapsed_s=entry.elapsed_s,
                            )
                        )

            if self.max_workers > 1:
                # stage 2: fault-free baselines, one per experiment group
                baselines = [
                    _Task(cell, None)
                    for cell in cells
                    if cell.is_baseline and cell not in done
                ]
                done.update(self._run_pooled(baselines))
                # stage 3: scheme cells, primed with their group's baseline
                done.update(self._run_pooled(self._scheme_tasks(cells, done)))
            else:
                # stages 2 and 3, one config at a time
                groups: dict = {}
                for cell in cells:
                    groups.setdefault(cell.config, []).append(cell)
                for group in groups.values():
                    self._run_config(group, done)
        finally:
            if drainer is not None:
                drainer.stop()
                self._channel.close()
                self._channel = None

        wall = time.perf_counter() - t0
        self.monitor.finalize(wall)
        overwrites = (
            self.store.overwrites - overwrites0 if self.store is not None else 0
        )
        manifest = self.monitor.manifest(store_overwrites=overwrites)
        if self.store is not None:
            self.store.put_manifest(manifest)
        return CampaignResult(
            spec=self.spec,
            results=[done[cell] for cell in cells],
            wall_s=wall,
            workers=self.max_workers,
            run_id=self.monitor.run_id,
            manifest=manifest,
        )

    # ------------------------------------------------------------------
    def _emit(self, result: CellResult) -> CellResult:
        if result.status == "failed":
            _log.warning(
                "cell failed",
                cell=result.cell.label,
                attempts=result.attempts,
                error=result.error or "",
            )
        else:
            _log.debug(
                "cell done",
                cell=result.cell.label,
                status=result.status,
                elapsed_s=round(result.elapsed_s or 0.0, 6),
            )
        self.monitor.cell_done(result)
        if self.progress is not None:
            self.progress.cell_done(result)
        return result

    def _finish(self, task: _Task, report, elapsed: float) -> CellResult:
        """Persist a fresh result and normalize it through the store.

        Reading the result back means a cell served from cache tomorrow
        is byte-for-byte the object this campaign returned today.  The
        deterministic cell correlation id is stamped onto the traced
        telemetry *before* the store write — same code path serial and
        parallel, so the annotation cannot perturb bit-identity.
        """
        cell = task.cell
        annotate_root_span(report, "cell_id", cell_correlation_id(cell))
        if self.store is not None:
            self.store.put(cell, report, elapsed_s=elapsed)
            report = self.store.get(cell)
        return self._emit(
            CellResult(
                cell,
                "ran",
                report=report,
                elapsed_s=elapsed,
                attempts=task.attempt,
                wasted_s=task.wasted,
            )
        )

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool wired into the telemetry channel."""
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=init_worker,
            initargs=(
                self._channel,
                self.monitor.run_id,
                root_manager().level,
                self.monitor.heartbeat_interval_s,
            ),
        )

    def _scheme_tasks(self, cells, done) -> list[_Task]:
        """Stage 3's tasks: every scheme cell not yet done, primed with
        its group's baseline report.  A cell whose baseline failed is
        failed here instead."""
        baselines = {cell.config: done[cell] for cell in cells if cell.is_baseline}
        tasks = []
        for cell in cells:
            if cell.is_baseline or cell in done:
                continue
            ff = baselines[cell.config]
            if not ff.ok:
                done[cell] = self._emit(
                    CellResult(cell, "failed", error=f"baseline failed: {ff.error}")
                )
                continue
            tasks.append(_Task(cell, ff.report))
        return tasks

    def _run_config(self, cells, done) -> None:
        """Stages 2 and 3 of a serial run for one config's cells, inline
        and on one shared Experiment, dropped after the last of them."""
        inline = partial(run_cell_in_worker, channel=LocalChannel(self.monitor))
        token = _shared_experiments.set(_SharedExperiments())
        try:
            for cell in cells:
                if cell.is_baseline and cell not in done:
                    done[cell] = self._run_alone(_Task(cell, None), inline)
            for task in self._scheme_tasks(cells, done):
                done[task.cell] = self._run_alone(task, inline)
        finally:
            _shared_experiments.reset(token)

    def _call(self, task: _Task) -> tuple:
        """:func:`run_cell_in_worker`'s arguments for the task's next attempt."""
        return (
            self.worker,
            task.cell,
            task.baseline,
            self.timeout_s,
            cell_correlation_id(task.cell),
            task.attempt,
        )

    def _settle(self, task: _Task, outcome) -> CellResult | None:
        """What one attempt's outcome means — decided here and nowhere else.

        ``outcome()`` returns the attempt's ``(report, elapsed)`` or
        raises what the attempt raised.  Ran: persisted, done.  Timed
        out: failed, never retried.  Any other error: its wasted seconds
        are added and the cell runs again while ``attempt <= retries``.
        A dead worker gets here only from a one-worker pool, where the
        crash provably belongs to this cell: it is allowed ``retries``
        more.  Returns ``None`` when the cell is to run again, with
        ``task.attempt`` already advanced.
        """
        try:
            return self._finish(task, *outcome())
        except CellTimeout as exc:
            task.wasted += _wasted_s(exc)
            error, again = str(exc), False
        except BrokenProcessPool:
            task.crashes += 1
            error, again = "worker process crashed", task.crashes <= self.retries
        except Exception as exc:
            task.wasted += _wasted_s(exc)
            error, again = _error_string(exc), task.attempt <= self.retries
        if again:
            task.attempt += 1
            return None
        return self._emit(
            CellResult(
                task.cell,
                "failed",
                attempts=task.attempt,
                elapsed_s=task.wasted,
                error=error,
            )
        )

    def _run_alone(self, task: _Task, invoke) -> CellResult:
        """One cell, attempt after attempt, until the policy settles it:
        the serial path (``invoke`` runs the worker inline) and the
        crash endgame (``invoke`` is :meth:`_in_own_pool`)."""
        while True:
            self.monitor.cell_queued(task.cell, task.attempt)
            result = self._settle(task, lambda: invoke(*self._call(task)))
            if result is not None:
                return result

    def _in_own_pool(self, *call):
        with self._pool(1) as pool:
            return pool.submit(run_cell_in_worker, *call).result()

    def _run_pooled(self, queue: list[_Task]) -> dict[CampaignCell, CellResult]:
        """Pooled rounds with crash recovery.

        A dead worker breaks the whole pool: every in-flight future
        raises ``BrokenProcessPool`` and the crasher is indistinguishable
        from its innocent pool-mates.  So a broken round settles nobody:
        the pool is rebuilt and everyone unfinished re-queued.  After
        ``retries + 1`` broken rounds the survivors move to an
        exact-attribution endgame: each runs alone in a single-worker
        pool, where a crash provably belongs to that cell.
        """
        out: dict[CampaignCell, CellResult] = {}
        broken_rounds = 0
        while queue and broken_rounds <= self.retries:
            requeue: list[_Task] = []
            round_broke = False
            with self._pool(min(self.max_workers, len(queue))) as pool:
                futures = {}
                for task in queue:
                    self.monitor.cell_queued(task.cell, task.attempt)
                    try:
                        future = pool.submit(run_cell_in_worker, *self._call(task))
                    except BrokenProcessPool:
                        # A worker died before this task was submitted:
                        # the same broken round its in-flight mates see.
                        round_broke = True
                        task.attempt += 1
                        requeue.append(task)
                        continue
                    futures[future] = task
                for future in as_completed(futures):
                    task = futures[future]
                    if isinstance(future.exception(), BrokenProcessPool):
                        round_broke = True
                        task.attempt += 1
                        result = None
                    else:
                        result = self._settle(task, future.result)
                    if result is None:
                        requeue.append(task)
                    else:
                        out[task.cell] = result
            broken_rounds += round_broke
            queue = requeue
        for task in queue:
            out[task.cell] = self._run_alone(task, self._in_own_pool)
        return out


def run_campaign(spec: CampaignSpec, **options) -> CampaignResult:
    """One-call façade over :class:`CampaignRunner`."""
    return CampaignRunner(spec, **options).run()
