"""The per-layer ledger: one probe per layer boundary, timed from outside.

Every probe calls a public function of one layer inside a
``repro.obs.spans.SpanRecorder`` span on the wall clock — the same
mechanism the traced workload repetitions use — and a metric is the
median duration of its spans, scaled to reference seconds by the
calibration slices that ran beside them, like the end-to-end metrics
(a ratio is the ratio of two such values; counts are left alone).

The ledger does not depend on the workload being traced: the driver's
contract wants every per-layer metric from every ``--trace 1`` run, so
each one runs all of it, next to the workload's own tracing overhead and
host context.  Every probe is capped at the fewest samples its metric
needs (about 12 s in all, 17 s on the host's slow hours), because a
traced run counts towards the driver's wall-clock cap like any other.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    ResultStore,
    cell_key,
    execute_cell,
    report_from_dict,
    report_to_dict,
    run_campaign,
)
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.matrices import suite as matrix_suite
from repro.obs.export import telemetry_to_dict
from repro.obs.spans import SpanRecorder
from repro.serve.app import ServeApp, parse_solve_request
from repro.serve.core import ServingCore
from repro.serve.http import HttpRequest

import guards
import procs
from measure import median, percentile, pooled_latencies_ms
from workloads import (
    GRID_SCALE,
    RUN_ID,
    SERVE_BASE,
    SERVE_SCHEMES,
    ServeCold,
    ServeHot,
    grid_spec_args,
)

#: Schemes whose recovery cost is reported against the fault-free solve.
RECOVERY_SCHEMES = ("LI", "CR-D", "RD", "ESR")


class Ledger:
    """Collects probe spans and turns them into metric values."""

    def __init__(self, scratch: Path, sampler, *, quick: bool, all_cpus=()) -> None:
        self.scratch = scratch
        self.sampler = sampler
        self.quick = quick
        #: The CPUs the run had before it pinned itself to one of them.
        self.all_cpus = set(all_cpus)
        self.rec = SpanRecorder()
        #: ``{metric name: value}`` in the unit BENCHMARK.json gives it.
        self.values: dict[str, float] = {}
        self.problems: list[str] = []

    def timed(self, span_name: str, fn, n: int, batch: int = 1) -> float:
        """Median reference seconds per call over ``n`` spans of
        ``batch`` calls each (batches keep the span's own cost out of
        microsecond-scale probes); ``fn`` gets the running call index."""
        done = len(self.rec.of_name(span_name))
        for i in range(n):
            with self.rec.span(span_name, calls=batch):
                for j in range(batch):
                    fn(i * batch + j)
        return self.reference_s(span_name, done, batch)

    async def atimed(self, span_name: str, fn, n: int, batch: int = 1) -> float:
        done = len(self.rec.of_name(span_name))
        for i in range(n):
            with self.rec.span(span_name, calls=batch):
                for j in range(batch):
                    await fn(i * batch + j)
        return self.reference_s(span_name, done, batch)

    def reference_s(self, span_name: str, skip: int = 0, batch: int = 1) -> float:
        """Median duration of the spans of that name (after the first
        ``skip``), per call, scaled by the calibration slices that ran
        beside them."""
        spans = self.rec.of_name(span_name)[skip:]
        timeline = self.sampler.timeline()
        idle = timeline.idle_share(spans[0].t_start, spans[-1].t_end)
        return median(
            timeline.reference_s(s.t_start, s.t_end, idle) / batch for s in spans
        )

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ----------------------------------------------------------------------
def _anchor_config(quick: bool) -> ExperimentConfig:
    """The one simulated cell the solver-side probes look at."""
    if quick:
        return ExperimentConfig(matrix="stencil5", scale=0.25, nranks=16)
    return ExperimentConfig(matrix="crystm02", scale=GRID_SCALE, nranks=16)


def probe_import(led: Ledger) -> None:
    argv = [sys.executable, "-c", "import repro.cli"]
    env = procs.child_env(led.scratch / "cache")

    def launch(_):
        subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL)

    led.values["cli.import_s"] = led.timed("cli.import", launch, n=2)


def probe_problem(led: Ledger) -> None:
    cfg = _anchor_config(led.quick)
    build = led.timed(
        "matrices.build",
        lambda _: matrix_suite.build(cfg.matrix, cfg.scale, cache=False),
        n=3,
    )
    led.values["matrices.build_ms"] = build * 1e3
    matrix_suite.build(cfg.matrix, cfg.scale)
    hit = led.timed(
        "matrices.cache_hit",
        lambda _: matrix_suite.build(cfg.matrix, cfg.scale),
        n=10,
        batch=50,
    )
    led.values["matrices.cache_hit_us"] = hit * 1e6
    init = led.timed("harness.experiment_init", lambda _: Experiment(cfg), n=10)
    led.values["harness.experiment_init_ms"] = init * 1e3


def probe_core(led: Ledger) -> None:
    cfg = _anchor_config(led.quick)
    n = 3
    fresh = [Experiment(cfg) for _ in range(n)]
    ff_s = led.timed("core.ff_solve", lambda i: fresh[i].fault_free, n=n)
    ff = fresh[0].fault_free
    led.expect(
        all(e.fault_free.iterations == ff.iterations for e in fresh),
        "fault-free iteration count does not repeat",
    )
    led.values["core.ff_solve_ms"] = ff_s * 1e3
    led.values["core.ff_iter_us"] = ff_s / ff.iterations * 1e6
    led.values["core.iterations"] = ff.iterations

    def primed() -> Experiment:
        experiment = Experiment(cfg)
        experiment.prime_baseline(ff)
        return experiment

    for scheme in RECOVERY_SCHEMES:
        pair = [primed(), primed()]
        faulty_s = led.timed(
            f"core.recovery.{scheme}", lambda i, s=scheme: pair[i].run(s), n=2
        )
        led.values[f"core.recovery.overhead_ratio.{scheme}"] = faulty_s / ff_s

    cell = CampaignCell(cfg, "LI")
    cell_s = led.timed("engines.sim.cell", lambda _: execute_cell(cell, ff), n=3)
    led.values["engines.sim.cell_ms"] = cell_s * 1e3

    traced_cell = CampaignCell(replace(cfg, trace=True), "LI")
    traced = []
    traced_s = led.timed(
        "engines.sim.cell_traced",
        lambda _: traced.append(execute_cell(traced_cell, ff)[0]),
        n=3,
    )
    led.values["obs.trace_overhead_ratio"] = traced_s / cell_s
    telemetry = json.dumps(telemetry_to_dict(traced[0].details["telemetry"]))
    led.values["obs.telemetry_kb_per_cell"] = len(telemetry) / 1024.0

    small = replace(cfg, matrix="stencil5")
    per_backend = {}
    for backend in ("batched", "loop"):
        config = replace(small, backend=backend)
        Experiment(config).fault_free  # problem set-up caches warm
        per_backend[backend] = led.timed(
            f"core.backends.{backend}", lambda _, c=config: Experiment(c).fault_free, n=2
        )
    led.values["core.backends.loop_over_batched"] = (
        per_backend["loop"] / per_backend["batched"]
    )


def probe_campaign(led: Ledger) -> None:
    spec = CampaignSpec(**grid_spec_args(0, quick=led.quick))
    cells = spec.cells()
    n_cells = len(cells)
    expand = led.timed("campaign.spec.expand", lambda _: spec.cells(), n=10, batch=10)
    led.values["campaign.spec.expand_us_per_cell"] = expand / n_cells * 1e6
    key = led.timed(
        "campaign.store.key", lambda j: cell_key(cells[j % n_cells]), n=10, batch=n_cells
    )
    led.values["campaign.store.key_us"] = key * 1e6

    root = led.scratch / "ledger-stores"
    with ResultStore(root / "serial") as store:
        results = []
        serial_s = led.timed(
            "campaign.run_serial",
            lambda _: results.append(
                run_campaign(spec, store=store, max_workers=1, run_id=RUN_ID)
            ),
            n=1,
        )
        serial = results[0]
        led.expect(serial.n_ran == n_cells, "ledger grid did not run clean")
        compute_share = sum(r.elapsed_s for r in serial.results) / serial.wall_s
        led.values["campaign.runner.overhead_ms_per_cell"] = (
            serial_s * (1.0 - compute_share) / n_cells * 1e3
        )
        led.values["campaign.store.payload_kb_per_cell"] = (
            store.payload_bytes() / n_cells / 1024.0
        )
        reports = [r.report for r in serial.results]
        payloads = [guards.wire_form(report) for report in reports]

        get_hit = led.timed(
            "campaign.store.get_hit",
            lambda j: store.get_entry(cells[j % n_cells]),
            n=3,
            batch=n_cells,
        )
        led.values["campaign.store.get_hit_ms"] = get_hit * 1e3
        decode = led.timed(
            "campaign.serialize.decode",
            lambda j: report_from_dict(payloads[j % n_cells]),
            n=3,
            batch=n_cells,
        )
        led.values["campaign.serialize.decode_ms"] = decode * 1e3
        encode = led.timed(
            "campaign.serialize.encode",
            lambda j: report_to_dict(reports[j % n_cells]),
            n=3,
            batch=n_cells,
        )
        led.values["campaign.serialize.encode_ms"] = encode * 1e3

        reads0 = store.hits + store.misses
        resumed = []
        resume_s = led.timed(
            "campaign.run_resume",
            lambda _: resumed.append(
                run_campaign(spec, store=store, max_workers=1, run_id=RUN_ID)
            ),
            n=3,
        )
        n_cached = sum(r.n_cached for r in resumed)
        led.expect(n_cached == 3 * n_cells, "ledger resume pass recomputed cells")
        led.values["campaign.store.reads_per_cached_cell"] = (
            store.hits + store.misses - reads0
        ) / max(1, n_cached)
        led.values["campaign.runner.resume_overhead_ms_per_cell"] = (
            resume_s / n_cells - get_hit
        ) * 1e3

    fresh = [ResultStore(root / f"put-{i}") for i in range(3)]
    try:
        put = led.timed(
            "campaign.store.put",
            lambda j: fresh[j // n_cells].put(cells[j % n_cells], reports[j % n_cells]),
            n=3,
            batch=n_cells,
        )
        led.values["campaign.store.put_ms"] = put * 1e3
    finally:
        for store in fresh:
            store.close()
    with ResultStore(root / "empty") as empty:
        miss = led.timed(
            "campaign.store.get_miss",
            lambda j: empty.get_entry(cells[j % n_cells]),
            n=3,
            batch=n_cells,
        )
    led.values["campaign.store.get_miss_ms"] = miss * 1e3

    # The one probe that is about a second CPU: give the pool's workers
    # every CPU the run started with, then go back to the pinned one.
    pinned = os.sched_getaffinity(0) if led.all_cpus else None
    if pinned:
        os.sched_setaffinity(0, led.all_cpus)
    try:
        with ResultStore(root / "pool2") as store:
            results = []
            pooled_s = led.timed(
                "campaign.run_pool2",
                lambda _: results.append(
                    run_campaign(spec, store=store, max_workers=2, run_id=RUN_ID)
                ),
                n=1,
            )
    finally:
        if pinned:
            os.sched_setaffinity(0, pinned)
    pooled = results[0]
    led.expect(pooled.n_ran == n_cells, "ledger 2-worker grid did not run clean")
    led.values["campaign.runner.pool2_speedup"] = serial_s / pooled_s
    rows = pooled.manifest.cells
    waited = sum(c.queue_wait_s for c in rows)
    led.values["campaign.fleet.queue_wait_share"] = waited / max(
        1e-12, waited + sum(c.compute_s for c in rows)
    )


def probe_serve_in_process(led: Ledger) -> None:
    """The serving tier without a socket: parse, app, core tiers."""
    fields = {**SERVE_BASE, "scheme": "LI", "seed": 0}
    cell = parse_solve_request(dict(fields))
    parse = led.timed(
        "serve.app.parse", lambda _: parse_solve_request(dict(fields)), n=10, batch=100
    )
    led.values["serve.app.parse_us"] = parse * 1e6

    baseline = Experiment(cell.config).fault_free
    analytic = led.timed(
        "engines.analytic.cell", lambda _: execute_cell(cell, baseline), n=20
    )
    led.values["engines.analytic.cell_us"] = analytic * 1e6

    def fresh_cells(first_seed: int, count: int) -> list[CampaignCell]:
        """``count`` never-seen configs, one scheme each."""
        return [
            parse_solve_request({**fields, "seed": first_seed + i}) for i in range(count)
        ]

    def one_config_cells(seed: int) -> list[CampaignCell]:
        """Every scheme the served family knows, on one fresh config."""
        return [
            parse_solve_request({**fields, "seed": seed, "scheme": scheme})
            for scheme in SERVE_SCHEMES
        ]

    async def probes() -> None:
        request = HttpRequest(
            method="POST",
            path="/v1/solve",
            query={},
            headers={},
            body=json.dumps(fields).encode(),
        )
        store = ResultStore(led.scratch / "ledger-serve-store")
        hot = ServingCore(store)
        through_store = ServingCore(store, cache_size=0)
        bare = ServingCore(None, cache_size=0)
        app = ServeApp(hot)
        try:
            first = await app.handle(request)
            led.expect(first.status == 200, "in-process /v1/solve failed")
            handle = await led.atimed(
                "serve.app.handle_hot", lambda _: app.handle(request), n=10, batch=20
            )
            led.values["serve.app.handle_hot_ms"] = handle * 1e3
            lru = await led.atimed(
                "serve.core.lru_hit", lambda _: hot.solve_cell(cell), n=10, batch=50
            )
            led.values["serve.core.lru_hit_us"] = lru * 1e6

            sources = set()

            async def from_store(_):
                sources.add((await through_store.solve_cell(cell)).source)

            store_hit = await led.atimed("serve.core.store_hit", from_store, n=20)
            led.expect(sources == {"store"}, f"store-tier probe answered from {sources}")
            led.values["serve.core.store_hit_ms"] = store_hit * 1e3

            lone = fresh_cells(10_000, 10 if led.quick else 20)
            computed = await led.atimed(
                "serve.core.computed", lambda j: bare.solve_cell(lone[j]), n=len(lone)
            )
            led.values["serve.core.computed_ms"] = computed * 1e3

            # One config, all its schemes at once (they share a
            # micro-batch, so one Experiment and one fault-free solve)
            # against the same number of lone cold cells, one at a time.
            gathered = one_config_cells(20_000)

            async def gather(_):
                await asyncio.gather(*(bare.solve_cell(c) for c in gathered))

            gathered_s = await led.atimed("serve.core.batch_gathered", gather, n=1)
            led.values["serve.core.batch_amortization"] = gathered_s / (
                computed * len(gathered)
            )
        finally:
            for core in (hot, through_store, bare):
                core.close()
            store.close()

    asyncio.run(probes())


def _reference_latencies_ms(led: Ledger, reps) -> list[float]:
    """Every request latency of ``reps``, each scaled by the calibration
    slices that ran beside its repetition."""
    timeline = led.sampler.timeline()
    for rep in reps:
        rep.scale(timeline)
    return pooled_latencies_ms(reps)


def probe_serve_hot_child(led: Ledger) -> None:
    """A real server, hot: HTTP floor, scrape, hot tail, shutdown."""
    hot = ServeHot(0, led.scratch / "ledger-hot", quick=led.quick)
    hot.build()
    try:
        client = hot.clients[0]
        floor = led.timed("serve.http.floor", lambda _: client.health(), n=10, batch=30)
        led.values["serve.http.floor_ms"] = floor * 1e3
        rep = hot.repetition()
        rep.check()
        led.expect(rep.failed == 0, f"ledger hot requests failed: {hot.failures[:3]}")
        samples = _reference_latencies_ms(led, [rep])
        led.values["serve.client.hot_p99_ms"] = percentile(samples, 99)
        led.values["serve.client.hot_samples"] = len(samples)
        scrape = led.timed("obs.metrics.scrape", lambda _: client.metrics_text(), n=10)
        led.values["obs.metrics.scrape_ms"] = scrape * 1e3
        led.values["serve.http.shutdown_s"] = led.timed(
            "serve.http.shutdown", lambda _: hot.stop_with_idle_connection(), n=1
        )
    finally:
        hot.close()


def probe_serve_cold_child(led: Ledger) -> None:
    """A real server, cold: the tail of never-seen configs (two
    repetitions' worth: the 99th percentile of 240 samples is the third
    from the top; ``serve.client.cold_samples`` says how many it had)."""
    cold = ServeCold(0, led.scratch / "ledger-cold", quick=led.quick)
    cold.build()
    try:
        done = []
        while sum(r.attempted for r in done) < (8 if led.quick else 200):
            rep = cold.repetition()
            rep.check()
            cold.between()
            done.append(rep)
        led.expect(
            sum(r.failed for r in done) == 0,
            f"ledger cold requests failed: {cold.failures[:3]}",
        )
        samples = _reference_latencies_ms(led, done)
        led.values["serve.client.cold_p99_ms"] = percentile(samples, 99)
        led.values["serve.client.cold_samples"] = len(samples)
    finally:
        cold.close()


def run_ledger(scratch: Path, sampler, *, quick: bool, all_cpus=()) -> Ledger:
    led = Ledger(scratch, sampler, quick=quick, all_cpus=all_cpus)
    for probes in (
        probe_import,
        probe_problem,
        probe_core,
        probe_campaign,
        probe_serve_in_process,
        probe_serve_hot_child,
        probe_serve_cold_child,
    ):
        probes(led)
    return led
