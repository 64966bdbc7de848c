"""Campaign execution: a fault-tolerant worker pool over config groups.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into a
:class:`CampaignResult`.  With ``resume`` on, every cell already in the
:class:`~repro.campaign.store.ResultStore` is served from disk first.
The rest run as **config groups**: one config's fault-free (FF) cell and
its scheme cells, the unit the paper normalizes within.  One function,
:func:`_run_group`, runs a group's cells in order, FF first, on one
Experiment: the FF solve records the fault-free CG trajectory and every
scheme solve installs from it (:mod:`repro.core.trajectory`), or, when
FF came from the store, its report primes the Experiment.  The
Experiment is dropped with the group, so a process holds one trajectory
memo at a time.

``max_workers`` chooses only where that function runs: called inline
(``max_workers=1``: no pool, no pickling) or submitted to a
``ProcessPoolExecutor``, largest group first.  Each cell runs through
:func:`execute_cell`, a pure function of (cell, baseline): given the
explicit seeds in :class:`~repro.harness.experiment.ExperimentConfig`
the result is deterministic, so serial and pooled campaigns produce
identical reports.

Fault tolerance: each cell gets a wall-clock timeout (SIGALRM inside
the worker, so the pool survives) and bounded retries, decided per
cell by one policy (:func:`_charge`); a worker crash
(``BrokenProcessPool``) rebuilds the pool and re-queues the unfinished
cells of the affected groups.  A pool worker banks each cell's outcome
on disk as it settles, so a crash later in its group takes none of the
group's finished cells with it.

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
import pickle
import signal
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
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
from repro.matrices import suite as matrix_suite
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


#: The value of :data:`_group_experiment` outside any config group.
_NO_GROUP = object()

#: The Experiment the running config group's cells share (bound by
#: :func:`_run_group`): ``None`` until the group's first cell builds it,
#: :data:`_NO_GROUP` outside a group (direct calls), where every cell
#: builds its own.  It is dropped with the group, memo and all.
_group_experiment: ContextVar = ContextVar(
    "repro_group_experiment", default=_NO_GROUP
)


def execute_cell(
    cell: CampaignCell,
    baseline: SolveReport | None = None,
    timeout_s: float | None = None,
) -> tuple[SolveReport, float]:
    """Run one cell to completion; the unit of work a pool worker executes.

    Returns ``(report, elapsed_seconds)``.  ``baseline`` primes the
    experiment's fault-free report so scheme cells skip the baseline
    solve.  Inside a config group (:func:`_run_group`) the cell runs on
    the group's one :class:`Experiment`, built by its first cell; the
    report is bit-identical either way.  ``timeout_s`` arms a
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
    try:
        experiment = _group_experiment.get()
        if experiment is None or experiment is _NO_GROUP:
            built = Experiment(cell.config)
            if experiment is None:  # the group's first cell: it shares this one
                _group_experiment.set(built)
            experiment = built
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
    attempt: int = 1
    #: Compute seconds this cell's failed attempts have burned so far.
    wasted: float = 0.0
    #: Worker deaths that were provably this cell's (it ran alone).
    crashes: int = 0


def _charge(task: _Task, exc: Exception, retries: int) -> str | None:
    """What one failed attempt means — decided here and nowhere else.

    Timed out: failed, never retried.  A dead worker, which only the
    crash endgame's one-worker pools charge to a cell (there the crash
    provably is this cell's): allowed ``retries`` more.  Any other
    error: its wasted seconds are added and the cell runs again while
    ``attempt <= retries``.  Returns the error when the cell has failed
    for good, else ``None`` with ``task.attempt`` already advanced.
    """
    if isinstance(exc, CellTimeout):
        task.wasted += _wasted_s(exc)
        return str(exc)
    if isinstance(exc, BrokenProcessPool):
        task.crashes += 1
        error, again = "worker process crashed", task.crashes <= retries
    else:
        task.wasted += _wasted_s(exc)
        error, again = _error_string(exc), task.attempt <= retries
    if again:
        task.attempt += 1
        return None
    return error


@dataclass
class _Group:
    """A config's cells still to run, FF first — the runner's one unit
    of work — and, when FF is not among them, how FF settled: its
    report, or the error it failed with."""

    tasks: list[_Task]
    baseline: SolveReport | None = None
    ff_error: str | None = None

    def cost(self) -> float:
        """Relative compute, from the matrix's suite metadata alone (no
        matrix is built): rows × nonzeros per row × scale × calibrated
        fault-free iterations × cells."""
        config = self.tasks[0].cell.config
        matrix = matrix_suite.spec(config.matrix)
        per_cell = matrix.rows * matrix.nnz_per_row * config.scale * matrix.iters
        return per_cell * len(self.tasks)


def _bank(directory: str, task: _Task, report, elapsed: float, error) -> None:
    """Keep one settled cell's outcome under ``directory``, written whole
    (by rename), so a pool worker that dies later in its group takes
    none of the group's finished cells with it."""
    path = os.path.join(directory, cell_correlation_id(task.cell))
    with open(f"{path}.tmp", "wb") as f:
        pickle.dump((task, report, elapsed, error), f, pickle.HIGHEST_PROTOCOL)
    os.replace(f"{path}.tmp", path)


def _run_group(
    group: _Group,
    worker,
    timeout_s: float | None,
    retries: int,
    record,
    invoke=run_cell_in_worker,
    queued=None,
) -> None:
    """Run a config group's cells in order, FF first, on one Experiment.

    A serial run calls this inline, a pooled run submits it whole to a
    worker, and the crash endgame calls it inline with an ``invoke``
    that runs each attempt in its own one-worker pool.  The first cell
    to run builds the Experiment the rest share (:func:`execute_cell`);
    a cached FF report reaches the scheme cells as their baseline.
    Each cell's attempts follow :func:`_charge`; a scheme cell whose
    group's FF failed fails unattempted.  ``record(task, report,
    elapsed, error)`` is called once per cell as it settles,
    ``queued(cell, attempt)`` before every attempt.
    """
    baseline, ff_error = group.baseline, group.ff_error
    token = _group_experiment.set(None)
    try:
        for task in group.tasks:
            cell, outcome = task.cell, None
            if baseline is None and not cell.is_baseline:
                outcome = (task, None, 0.0, f"baseline failed: {ff_error}")
            call = (worker, cell, baseline, timeout_s, cell_correlation_id(cell))
            while outcome is None:
                if queued is not None:
                    queued(cell, task.attempt)
                try:
                    outcome = (task, *invoke(*call, task.attempt), None)
                except Exception as exc:
                    error = _charge(task, exc, retries)
                    if error is not None:
                        outcome = (task, None, 0.0, error)
            if cell.is_baseline:
                baseline, ff_error = outcome[1], outcome[3]
            record(*outcome)
    finally:
        _group_experiment.reset(token)


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
        self._done = done = {}
        self.monitor.begin(
            total=len(cells), name=self.spec.name, workers=self.max_workers
        )
        # the counter itself, not stats(): stats() sizes every payload file
        overwrites0 = self.store.overwrites if self.store is not None else 0
        groups = self._groups(cells)
        if self.max_workers > 1 and groups:
            self._run_pooled(groups)
        else:
            inline = partial(run_cell_in_worker, channel=LocalChannel(self.monitor))
            for group in groups:
                self._run_inline(group, inline)
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
    def _groups(self, cells) -> list[_Group]:
        """The cache probe (with ``resume`` on and a store, every stored
        cell is served from disk), then each config's remaining cells
        as one group, in spec order."""
        probe = self.resume and self.store is not None
        todo: dict = {}
        baselines: dict = {}
        for cell in cells:
            entry = self.store.get_entry(cell) if probe else None
            if entry is None:
                todo.setdefault(cell.config, {})[cell] = None
                continue
            self._done[cell] = self._emit(
                CellResult(
                    cell, "cached", report=entry.report, elapsed_s=entry.elapsed_s
                )
            )
            if cell.is_baseline:
                baselines[cell.config] = entry.report
        return [
            _Group([_Task(cell) for cell in group], baselines.get(config))
            for config, group in todo.items()
        ]

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

    def _record(self, task: _Task, report, elapsed: float, error) -> None:
        """Settle one cell of a group: persist a fresh report and
        normalize it through the store, or fail the cell.

        Reading the result back means a cell served from cache tomorrow
        is byte-for-byte the object this campaign returned today.  The
        deterministic cell correlation id is stamped onto the traced
        telemetry *before* the store write — same code path serial and
        parallel, so the annotation cannot perturb bit-identity.
        """
        cell = task.cell
        if error is not None:
            result = CellResult(
                cell, "failed", attempts=task.attempt, elapsed_s=task.wasted,
                error=error,
            )
        else:
            annotate_root_span(report, "cell_id", cell_correlation_id(cell))
            if self.store is not None:
                self.store.put(cell, report, elapsed_s=elapsed)
                report = self.store.get(cell)
            result = CellResult(
                cell, "ran", report, elapsed, task.attempt, wasted_s=task.wasted
            )
        self._done[cell] = self._emit(result)

    def _run_inline(self, group: _Group, invoke) -> None:
        """One group in this process, each cell settled as it ends:
        ``queued`` → attempt → store → ``cell_done``, cell after cell."""
        _run_group(
            group, self.worker, self.timeout_s, self.retries,
            self._record, invoke, self.monitor.cell_queued,
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

    def _in_own_pool(self, *call):
        with self._pool(1) as pool:
            return pool.submit(run_cell_in_worker, *call).result()

    def _run_pooled(self, groups: list[_Group]) -> None:
        """Groups on a worker pool, largest first, with crash recovery.

        Each worker banks its cells' outcomes (:func:`_bank`), and the
        parent settles a group from the bank once its future is done.  A
        dead worker breaks the whole pool: every in-flight group raises
        ``BrokenProcessPool`` and the crasher is indistinguishable from
        its innocent pool-mates.  So a broken round fails nobody: the
        cells its groups banked settle as they ran, and each group's
        unfinished cells, one attempt on, are re-queued on a rebuilt
        pool.  After ``retries + 1`` broken rounds the survivors move to
        an exact-attribution endgame: each cell runs alone in a
        one-worker pool, FF before its schemes, where a crash provably
        belongs to that cell.
        """
        reader, self._channel = multiprocessing.Pipe(duplex=False)
        # a stalled parent drops telemetry instead of blocking a cell
        os.set_blocking(self._channel.fileno(), False)
        drainer = ChannelDrainer(reader, self.monitor)
        drainer.start()
        queue = sorted(groups, key=_Group.cost, reverse=True)
        broken_rounds = 0
        try:
            with tempfile.TemporaryDirectory(prefix="repro-bank-") as bank:
                args = (self.worker, self.timeout_s, self.retries, partial(_bank, bank))
                while queue and broken_rounds <= self.retries:
                    rest: list[_Group] = []
                    with self._pool(min(self.max_workers, len(queue))) as pool:
                        futures = {}
                        for group in queue:
                            for task in group.tasks:
                                self.monitor.cell_queued(task.cell, task.attempt)
                            try:
                                futures[pool.submit(_run_group, group, *args)] = group
                            except BrokenProcessPool:
                                # A worker died before this group was
                                # submitted: the same broken round its
                                # in-flight mates see.
                                rest.append(self._settle(group, bank))
                        for future in as_completed(futures):
                            with suppress(BrokenProcessPool):
                                future.result()
                            rest.append(self._settle(futures[future], bank))
                    queue = [group for group in rest if group.tasks]
                    broken_rounds += bool(queue)
            for group in queue:
                self._run_inline(group, self._in_own_pool)
        finally:
            drainer.stop()
            self._channel.close()
            self._channel = None

    def _settle(self, group: _Group, bank: str) -> _Group:
        """Settle each cell of a group that its worker banked; the rest,
        each one attempt on, is what remains of the group to run."""
        rest = _Group([], group.baseline, group.ff_error)
        for task in group.tasks:
            path = os.path.join(bank, cell_correlation_id(task.cell))
            try:
                with open(path, "rb") as f:
                    outcome = pickle.load(f)
            except FileNotFoundError:
                task.attempt += 1
                rest.tasks.append(task)
                continue
            self._record(*outcome)
            if task.cell.is_baseline:
                rest.baseline, rest.ff_error = outcome[1], outcome[3]
        return rest


def run_campaign(spec: CampaignSpec, **options) -> CampaignResult:
    """One-call façade over :class:`CampaignRunner`."""
    return CampaignRunner(spec, **options).run()
