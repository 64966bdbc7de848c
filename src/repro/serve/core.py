"""The serving core: caching, coalescing, batching, worker offload.

:class:`ServingCore` sits between the HTTP layer and the execution
engines and is deliberately socket-free so every behaviour is
unit-testable with plain ``asyncio`` (see tests/serve/test_core.py).
A solve request walks four tiers, cheapest first:

1. **LRU hot-cache** — an in-memory ``{cell key: CachedReport}`` map
   bounded at ``cache_size`` entries: each entry is a report and its
   reply JSON text, encoded once for the answer that brought it in.
   Hits cost a dict lookup; no store I/O, no deserialization, and no
   serialization either.
2. **Coalescer** — identical cells already being resolved share one
   in-flight future, so a burst of equal requests costs one
   computation (and one store lookup) total.
3. **ResultStore** — the content-addressed on-disk store, consulted in
   a worker thread so index/payload I/O never blocks the event loop.
   Store semantics are unchanged: a hit is only ever served for a cell
   that would reproduce bit-identically.
4. **Compute** — a miss everywhere.  Cells of every engine are
   *group-committed*: the first cell for an
   :class:`~repro.harness.experiment.ExperimentConfig` opens a group,
   which ships to a bounded thread pool (CPU-bound numerics must not
   starve the accept loop) on the next event-loop iteration.  Every
   cell for that config queued in the same tick joins the group and
   runs on one :class:`~repro.harness.experiment.Experiment`, so the
   fault-free baseline and problem setup are paid once per group; a
   cell arriving after its group shipped opens the next one.  No timer
   is armed: a lone cell waits for nothing but its solve.

Every path produces numbers bit-identical to a direct
``Experiment(config).run(scheme)`` call: runs are deterministic, a
group runs the exact same Experiment code, and cache tiers only ever
replay previously produced reports.

Consistency vs. the store: the core is read-through and write-through
(computed cells are persisted unless the core is store-less), and the
LRU is keyed by the same content hash as the store, so a cached entry
can never be served for a config that would not reproduce it.  The LRU
is *not* invalidated by external writers replacing a key's payload —
by construction a key identifies one deterministic result, so a
replacement is byte-equal anyway.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from repro.campaign.serialize import report_json
from repro.campaign.spec import CampaignCell
from repro.campaign.store import ResultStore, cell_key
from repro.core.report import SolveReport
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs.logging import current_request_id, get_logger
from repro.obs.metrics import MetricsRegistry, counter_by_label
from repro.obs.telemetry import annotate_root_span

_log = get_logger("serve.core")

#: Default bound on the in-memory hot-cache (reports, not bytes).
DEFAULT_CACHE_SIZE = 256

#: Default worker threads for CPU-bound cells and store I/O.
DEFAULT_WORKERS = 2

#: Buckets for the batch-size histogram (cells per shipped group).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def compute_group(
    config: ExperimentConfig, schemes: list[str]
) -> dict[str, SolveReport]:
    """Evaluate several schemes of one config on a shared Experiment.

    The serving tier's one unit of compute: the fault-free baseline
    and the problem setup are computed once for the whole group, and
    the group's sim solves share the fault-free CG trajectory
    (:mod:`repro.core.trajectory`), so it is walked once.
    The Experiment, and its memo with it, is dropped on return.
    Determinism makes the result per scheme bit-identical to a lone
    ``Experiment(config).run(scheme)``.
    """
    experiment = Experiment(config)
    return {scheme: experiment.run(scheme) for scheme in schemes}


class CachedReport:
    """A report and its reply text.

    The text is encoded on first use — by the reply to the answer that
    brought the report in, after the request ids are stamped on its
    trace — and every later answer sharing this object (LRU hits,
    coalesced waiters) reuses it.  Lazily, so a caller of
    :meth:`ServingCore.solve_cell` that never replies over HTTP never
    pays for the encode.
    """

    def __init__(self, report: SolveReport) -> None:
        self.report = report

    @cached_property
    def text(self) -> str:
        """:func:`~repro.campaign.serialize.report_json` of the report."""
        return report_json(self.report)


@dataclass(frozen=True)
class SolveOutcome:
    """One answered solve request, with cache provenance."""

    cached: CachedReport
    key: str
    #: Which tier answered: "lru", "coalesced", "store" or "computed".
    source: str
    elapsed_s: float

    @property
    def report(self) -> SolveReport:
        return self.cached.report


class ServingCore:
    """Caching/coalescing/batching layer over the execution engines.

    All public coroutines must run on a single event loop; the core
    touches its metrics registry and caches only from that loop, which
    is what keeps the deterministic :class:`MetricsRegistry` safe
    without locks.  Blocking work (store I/O, solves) runs on the
    bounded ``workers`` thread pool.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int = DEFAULT_WORKERS,
        metrics: MetricsRegistry | None = None,
        compute=compute_group,
    ) -> None:
        """``compute(config, schemes) -> {scheme: report}`` evaluates one
        group on a worker thread; tests substitute a fake."""
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.cache_size = cache_size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._compute = compute
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lru: OrderedDict[str, CachedReport] = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        # request ids riding each in-flight key: leader first, then every
        # coalesced waiter — the computed trace is annotated with all of
        # them, so shared compute still resolves from every id.
        self._inflight_ids: dict[str, list[str]] = {}
        # groups not yet shipped: config -> list of (scheme, future).
        # Coalescing merges equal cells, so a group holds each scheme once.
        self._pending: dict[ExperimentConfig, list[tuple[str, asyncio.Future]]] = {}

    # -- LRU tier ------------------------------------------------------
    def _lru_get(self, key: str) -> CachedReport | None:
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
        return cached

    def _lru_put(self, key: str, cached: CachedReport) -> None:
        if self.cache_size == 0:
            return
        self._lru[key] = cached
        self._lru.move_to_end(key)
        while len(self._lru) > self.cache_size:
            self._lru.popitem(last=False)
        self.metrics.gauge("serve_lru_entries").set(len(self._lru))

    # -- group commit --------------------------------------------------
    def _enqueue(self, cell: CampaignCell) -> asyncio.Future:
        """Queue one cell; its config's group ships on the next tick."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        group = self._pending.get(cell.config)
        if group is None:
            group = self._pending[cell.config] = []
            loop.call_soon(self._ship_group, cell.config)
        group.append((cell.scheme, future))
        return future

    def _ship_group(self, config: ExperimentConfig) -> None:
        """Send one config's queued cells to the pool as a single job."""
        group = self._pending.pop(config)
        schemes = [scheme for scheme, _ in group]
        self.metrics.counter("serve_batches").inc()
        self.metrics.histogram(
            "serve_batch_size", buckets=_BATCH_SIZE_BUCKETS
        ).observe(len(schemes))
        loop = asyncio.get_running_loop()
        job = loop.run_in_executor(self._executor, self._compute, config, schemes)

        def _resolve(task: asyncio.Future) -> None:
            exc = task.exception()
            for scheme, future in group:
                if future.done():
                    continue
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(task.result()[scheme])

        job.add_done_callback(_resolve)

    # -- the main entry point ------------------------------------------
    async def solve_cell(self, cell: CampaignCell) -> SolveOutcome:
        """Answer one (config, scheme) cell through the cache tiers."""
        t0 = time.perf_counter()
        key = cell_key(cell)
        engine = cell.config.engine
        request_id = current_request_id()

        def _done(cached: CachedReport, source: str) -> SolveOutcome:
            elapsed = time.perf_counter() - t0
            self.metrics.counter(
                "serve_solve", source=source, engine=engine
            ).inc()
            self.metrics.histogram(
                "serve_solve_latency_s", source=source
            ).observe(elapsed)
            _log.debug(
                "solve answered",
                key=key,
                scheme=cell.scheme,
                engine=engine,
                source=source,
                elapsed_ms=round(elapsed * 1e3, 3),
            )
            return SolveOutcome(
                cached=cached, key=key, source=source, elapsed_s=elapsed
            )

        cached = self._lru_get(key)
        if cached is not None:
            return _done(cached, "lru")

        inflight = self._inflight.get(key)
        if inflight is not None:
            if request_id is not None:
                self._inflight_ids.setdefault(key, []).append(request_id)
            return _done(await asyncio.shield(inflight), "coalesced")

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._inflight_ids[key] = [request_id] if request_id else []
        self.metrics.gauge("serve_inflight").set(len(self._inflight))
        try:
            source = "store"
            report = None
            if self.store is not None:
                report = await loop.run_in_executor(
                    self._executor, self.store.get, cell
                )
            if report is None:
                source = "computed"
                compute_t0 = time.perf_counter()
                report = await self._enqueue(cell)
                # stamp every rider (leader + coalesced waiters so far)
                # onto the trace before it is persisted or cached, so
                # GET /v1/reports/<key> resolves a request id to its span tree
                request_ids = self._inflight_ids.get(key)
                if request_ids:
                    annotate_root_span(report, "request_ids", ",".join(request_ids))
                if self.store is not None:
                    await loop.run_in_executor(
                        self._executor,
                        lambda: self.store.put(
                            cell,
                            report,
                            elapsed_s=time.perf_counter() - compute_t0,
                        ),
                    )
            cached = CachedReport(report)
            self._lru_put(key, cached)
            future.set_result(cached)
        except Exception as exc:
            self.metrics.counter("serve_errors", stage="solve").inc()
            _log.warning(
                "solve failed",
                key=key,
                scheme=cell.scheme,
                engine=engine,
                error=f"{type(exc).__name__}: {exc}",
            )
            future.set_exception(exc)
            future.exception()  # mark retrieved: waiters rethrow their own
            raise
        finally:
            self._inflight.pop(key, None)
            self._inflight_ids.pop(key, None)
            self.metrics.gauge("serve_inflight").set(len(self._inflight))
        return _done(cached, source)

    # -- introspection / lifecycle -------------------------------------
    def cache_stats(self) -> dict:
        """Serving-side cache/batch counters (JSON-shaped)."""
        sources = counter_by_label(
            self.metrics.snapshot(), "serve_solve", "source"
        )
        return {
            "lru_entries": len(self._lru),
            "lru_capacity": self.cache_size,
            "inflight": len(self._inflight),
            "pending_batches": len(self._pending),
            "solved_by_source": sources,
        }

    async def drain(self) -> None:
        """Wait out every in-flight request (tests and shutdown).

        A queued cell always has its leader in ``_inflight``, so waiting
        on the leaders covers every unshipped group too.
        """
        while self._inflight:
            await asyncio.gather(*self._inflight.values(), return_exceptions=True)

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ServingCore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
