"""Command-line interface.

The subcommands mirror the library's main entry points::

    python -m repro.cli run --matrix crystm02 --scheme LI-DVFS --faults 5
    python -m repro.cli suite --schemes RD F0 LI CR-D --matrices Kuu ex15
    python -m repro.cli campaign --preset iteration-study --workers 8 --resume
    python -m repro.cli validate --threshold 0.25
    python -m repro.cli trace --store .repro-cache --export trace.jsonl
    python -m repro.cli report --store .repro-cache --html report.html
    python -m repro.cli doctor --store .repro-cache
    python -m repro.cli project --sizes 192 1536 12288 98304
    python -m repro.cli mtbf
    python -m repro.cli serve --port 8030 --workers 2
    python -m repro.cli top --port 8030 --once

``run``, ``suite`` and ``campaign`` accept ``--engine`` to evaluate
cells with the numeric simulator (default) or the Section-3 closed-form
models; ``validate`` runs the same grid under both and gates on their
drift.  ``report`` renders phase-attribution waterfalls (plus run
diffs, Prometheus text and static HTML) from stored or exported
telemetry, and ``doctor`` runs the anomaly detectors over the same
inputs, exiting non-zero on findings.  ``serve`` stands up the async
HTTP tier (`repro.serve`) over the store and the engines — solve and
projection queries, stored-report retrieval and Prometheus
``/metrics``.  Everything prints plain text;
only ``campaign``/``validate`` write files (their result store,
``.repro-cache/`` by default), ``trace --export`` (the combined
telemetry JSONL) and ``report --html``/``--prometheus``.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.campaign import spec as campaign_presets
from repro.core.models.projection import FIGURE9_SCHEMES
from repro.core.recovery import scheme_names
from repro.core.backends import DEFAULT_BACKEND, backend_names
from repro.core.cg import PRECONDITIONERS
from repro.engines import engine_names
from repro.faults.events import FaultClass
from repro.faults.mtbf import EXASCALE, PETASCALE, MtbfEstimator
from repro.harness.experiment import FAULT_SCOPES, Experiment, ExperimentConfig, run_suite
from repro.harness.normalize import normalize_reports
from repro.harness.reporting import format_table
from repro.matrices import suite


def _build_parser() -> argparse.ArgumentParser:
    from repro.obs.logging import LOG_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Resilient, energy-aware CG on a simulated cluster "
            "(CLUSTER 2018 reproduction)"
        ),
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="structured-log threshold on stderr (default: warning; "
        "'serve' defaults to info so every request is narrated)",
    )
    parser.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="also append structured JSONL logs to this rotating file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one faulty solve vs its fault-free baseline")
    run.add_argument("--matrix", default="crystm02", choices=suite.names())
    run.add_argument("--scheme", default="LI-DVFS", choices=scheme_names())
    run.add_argument("--faults", type=int, default=5)
    run.add_argument("--ranks", type=int, default=64)
    run.add_argument("--tol", type=float, default=1e-8)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0, help="experiment RNG seed")
    run.add_argument(
        "--engine", choices=engine_names(), default="sim",
        help="numeric simulation (sim) or Section-3 closed-form models "
        "(analytic)",
    )
    run.add_argument(
        "--fault-scope", choices=list(FAULT_SCOPES), default="process",
        help="blast radius per fault: one rank (process, the paper's "
        "protocol), every rank on the victim's node, or all ranks",
    )
    run.add_argument(
        "--victims-per-fault", type=int, default=1, metavar="K",
        help="ranks lost simultaneously per fault event (default 1, the "
        "paper's protocol; >1 exercises multi-loss recovery)",
    )
    run.add_argument(
        "--precond", choices=list(PRECONDITIONERS), default=None,
        help="optional preconditioner (part of the cell's config and cache key)",
    )
    run.add_argument(
        "--cr-interval",
        default="paper",
        help="CR cadence: 'paper' (100 iters), 'young', or an integer",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="record per-solve telemetry and print the fault→recovery "
        "latency summary",
    )
    run.add_argument(
        "--backend", choices=backend_names(), default=DEFAULT_BACKEND,
        help="CG kernel backend: vectorized across ranks (batched, the "
        "default) or the rank-by-rank reference (loop); bit-identical",
    )

    sweep = sub.add_parser("suite", help="Figure-5-style sweep over matrices")
    sweep.add_argument("--matrices", nargs="+", default=None, choices=suite.names())
    sweep.add_argument(
        "--schemes", nargs="+", default=["RD", "F0", "LI", "CR-D"],
        choices=scheme_names(),
    )
    sweep.add_argument("--faults", type=int, default=10)
    sweep.add_argument("--ranks", type=int, default=64)
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=0, help="experiment RNG seed")
    sweep.add_argument(
        "--engine", choices=engine_names(), default="sim",
        help="numeric simulation (sim) or Section-3 closed-form models "
        "(analytic)",
    )
    sweep.add_argument(
        "--cr-interval",
        default="paper",
        help="CR cadence: 'paper' (100 iters), 'young', or an integer",
    )
    sweep.add_argument(
        "--victims-per-fault", type=int, default=1, metavar="K",
        help="ranks lost simultaneously per fault event (default 1)",
    )
    sweep.add_argument(
        "--backend", choices=backend_names(), default=DEFAULT_BACKEND,
        help="CG kernel backend: vectorized across ranks (batched, the "
        "default) or the rank-by-rank reference (loop); bit-identical",
    )

    camp = sub.add_parser(
        "campaign",
        help="orchestrated sweep with a persistent, resumable result store",
    )
    camp.add_argument(
        "--preset",
        choices=campaign_presets.preset_names(),
        default=None,
        help="named study grid; omit to build a custom grid from the flags below",
    )
    camp.add_argument(
        "--matrices", nargs="+", default=None, choices=suite.names(),
        help="restrict (or, without --preset, define) the matrix set",
    )
    camp.add_argument(
        "--schemes", nargs="+", default=None, choices=scheme_names(),
        help="restrict (or, without --preset, define) the scheme set",
    )
    camp.add_argument("--ranks", nargs="+", type=int, default=None)
    camp.add_argument("--faults", nargs="+", type=int, default=None)
    camp.add_argument("--seeds", nargs="+", type=int, default=None)
    camp.add_argument(
        "--engine", nargs="+", choices=engine_names(), default=None,
        dest="engines", metavar="ENGINE",
        help="execution engine(s) to sweep; pass both to build a "
        "model-vs-sim comparison grid",
    )
    camp.add_argument(
        "--backend", nargs="+", choices=backend_names(), default=None,
        dest="backends", metavar="BACKEND",
        help="CG kernel backend(s) to sweep; pass both to compare the "
        "batched and loop executions cell by cell (bit-identical)",
    )
    camp.add_argument(
        "--victims-per-fault", nargs="+", type=int, default=None,
        dest="victims_per_fault", metavar="K",
        help="victim-set size(s) to sweep: ranks lost simultaneously "
        "per fault event (default 1)",
    )
    camp.add_argument("--scale", type=float, default=None)
    camp.add_argument("--tol", type=float, default=None)
    camp.add_argument("--cr-interval", default=None)
    camp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 = serial in-process execution",
    )
    camp.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    camp.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="serve cells already in the store from cache (default on; "
        "--no-resume recomputes everything and overwrites)",
    )
    camp.add_argument(
        "--no-store", action="store_true",
        help="run fully in memory: nothing read from or written to disk",
    )
    camp.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget (default: none)",
    )
    camp.add_argument(
        "--retries", type=int, default=1,
        help="retries per cell on crash or error (default 1)",
    )
    camp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    camp.add_argument(
        "--trace", action="store_true",
        help="record per-cell telemetry (events, spans, metrics), persist "
        "it in the store, and print the campaign rollup",
    )
    camp.add_argument(
        "--watch", action="store_true",
        help="live fleet dashboard on stderr while the campaign runs "
        "(per-worker state, cells/s, ETA, queue-wait vs compute)",
    )
    camp.add_argument(
        "--once", action="store_true",
        help="with --watch: suppress the live repaint and print one "
        "plain escape-free closing frame to stdout (CI artifact mode)",
    )
    camp.add_argument(
        "--json-progress", default=None, metavar="PATH",
        help="write one machine-readable JSONL cell lifecycle event "
        "(queued/started/finished/failed/cached) per line to this file "
        "('-' for stderr)",
    )
    camp.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="worker heartbeat cadence on the fleet telemetry channel "
        "(default 1.0; 0 disables heartbeats)",
    )
    camp.add_argument(
        "--list-presets", action="store_true",
        help="print the preset grids and exit",
    )

    val = sub.add_parser(
        "validate",
        help="model-vs-sim drift gate: run the validation grid under "
        "both engines and compare normalized T_res / P / E_res",
    )
    val.add_argument(
        "--matrices", nargs="+", default=None, choices=suite.names(),
        help="restrict the validation grid's matrix set",
    )
    val.add_argument(
        # "FF" is accepted (the grid then has nothing to pair and the
        # command fails with the no-pairs verdict) so the degenerate
        # restriction errors loudly instead of being unrepresentable
        "--schemes", nargs="+", default=None,
        choices=[*scheme_names(), "FF"],
        help="restrict the validation grid's scheme set",
    )
    val.add_argument(
        "--threshold", type=float, default=None,
        help="max allowed normalized drift (default: the documented "
        "envelope, repro.engines.validate.DEFAULT_DRIFT_THRESHOLD)",
    )
    val.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the underlying campaign",
    )
    val.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    val.add_argument(
        "--no-store", action="store_true",
        help="run fully in memory: nothing read from or written to disk",
    )
    val.add_argument("--quiet", action="store_true", help="suppress progress lines")
    val.add_argument(
        "--terms", action="store_true",
        help="also print per-term drift (which Section-3 phase term "
        "diverges, not just the aggregate ratios)",
    )

    trace = sub.add_parser(
        "trace",
        help="inspect/export the telemetry a traced campaign persisted",
    )
    trace.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    trace.add_argument(
        "--matrix", default=None, choices=suite.names(),
        help="only cells of this matrix",
    )
    trace.add_argument(
        "--scheme", default=None,
        help="only cells of this scheme (FF for baselines)",
    )
    trace.add_argument(
        "--kind", default=None,
        choices=["fault", "recovery", "checkpoint", "restart", "phase"],
        help="only events of this kind in the event streams",
    )
    trace.add_argument(
        "--events", action="store_true",
        help="print each cell's full event stream",
    )
    trace.add_argument(
        "--spans", action="store_true",
        help="print each cell's span summary (flamegraph-style aggregate)",
    )
    trace.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the selected cells' telemetry as combined JSONL",
    )

    rep = sub.add_parser(
        "report",
        help="phase attribution (+ optional diff, HTML, Prometheus) "
        "from stored or exported telemetry",
    )
    rep.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    rep.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="read a 'repro trace --export' JSONL file instead of a store",
    )
    rep.add_argument(
        "--matrix", default=None,
        help="only cells whose label contains this matrix name",
    )
    rep.add_argument(
        "--scheme", default=None,
        help="only cells of this scheme (FF for baselines)",
    )
    rep.add_argument(
        "--diff", nargs=2, default=None, metavar=("LABEL_A", "LABEL_B"),
        help="structural diff of two cells by label",
    )
    rep.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write a self-contained static HTML report",
    )
    rep.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="also write the merged metrics as Prometheus text exposition",
    )
    rep.add_argument(
        "--campaign", nargs="?", const="latest", default=None,
        metavar="RUN_ID",
        help="also render a campaign run manifest from the store: worker "
        "fleet, per-cell timings, queue-wait vs compute (default: the "
        "most recent run)",
    )

    doc = sub.add_parser(
        "doctor",
        help="run anomaly detectors over a trace or a whole result "
        "store; exits non-zero on findings",
    )
    doc.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    doc.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="read a 'repro trace --export' JSONL file instead of a store",
    )
    doc.add_argument(
        "--matrix", default=None,
        help="only cells whose label contains this matrix name",
    )
    doc.add_argument(
        "--scheme", default=None,
        help="only cells of this scheme (FF for baselines)",
    )
    doc.add_argument(
        "--detectors", nargs="+", default=None, metavar="NAME",
        help="run only these detectors (default: all registered)",
    )
    doc.add_argument(
        "--list-detectors", action="store_true",
        help="print the registered detectors and exit",
    )
    doc.add_argument(
        "--history", default=None, metavar="PATH",
        help="metrics-history JSON (repro serve --history-out) to run "
        "the serving SLO burn detectors over",
    )
    doc.add_argument(
        "--run-id", default=None, metavar="RUN_ID",
        help="run the fleet detectors over this campaign manifest "
        "(default: the store's most recent run, when one exists)",
    )

    proj = sub.add_parser("project", help="Section-6 weak-scaling projection")
    proj.add_argument(
        "--sizes", nargs="+", type=int,
        default=[192, 1536, 12_288, 49_152, 98_304],
    )

    sub.add_parser("mtbf", help="Figure-1 MTBF estimates")

    srv = sub.add_parser(
        "serve",
        help="async HTTP serving tier over the result store and the "
        "execution engines (solve/project/report queries, /metrics)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8030,
        help="bind port (0 picks an ephemeral port and prints it)",
    )
    srv.add_argument(
        "--workers", type=int, default=2,
        help="worker threads for solves and store I/O",
    )
    srv.add_argument(
        "--cache-size", type=int, default=256,
        help="entries in the in-memory LRU hot-cache over store lookups",
    )
    srv.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    srv.add_argument(
        "--no-store", action="store_true",
        help="serve without a persistent store (LRU + compute only)",
    )
    srv.add_argument(
        "--backend", choices=backend_names(), default=DEFAULT_BACKEND,
        help="default CG kernel backend for solve requests that do not "
        "specify one",
    )
    srv.add_argument(
        "--latency-buckets", nargs="+", type=float, default=None,
        metavar="SECONDS",
        help="override the serve latency histograms' bucket upper "
        "bounds (ascending seconds)",
    )
    srv.add_argument(
        "--sample-interval", type=float, default=1.0, metavar="SECONDS",
        help="metrics-history sampling interval",
    )
    srv.add_argument(
        "--history-capacity", type=int, default=600,
        help="metrics-history ring-buffer capacity (samples)",
    )
    srv.add_argument(
        "--history-out", default=None, metavar="PATH",
        help="flush the metrics history to this JSON file on shutdown",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running 'repro serve' "
        "(req/s, cache hits, latency percentiles, SLO burn)",
    )
    top.add_argument("--host", default="127.0.0.1", help="server address")
    top.add_argument("--port", type=int, default=8030, help="server port")
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh seconds"
    )
    top.add_argument(
        "--window", type=float, default=60.0,
        help="trailing window (s) for rates and percentiles",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one plain snapshot and exit (CI artifact mode)",
    )
    return parser


def _parse_cr_interval(raw: str):
    if raw in ("paper", "young"):
        return raw
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"--cr-interval must be 'paper', 'young' or an int, got {raw!r}")


def _check_analytic_schemes(schemes) -> None:
    """Fail fast (at argument-parse time) on schemes the analytic engine
    cannot model.

    Argparse ``choices`` accepts every registered scheme, but the
    closed-form engine only models a subset — without this gate a
    ``campaign --engine analytic --schemes CR-ML`` would burn through
    the grid before dying mid-run on ``UnsupportedSchemeError``.
    """
    from repro.engines.analytic import analytic_scheme_names

    supported = analytic_scheme_names()
    bad = [s for s in schemes if s != "FF" and s not in supported]
    if bad:
        raise SystemExit(
            f"scheme(s) {', '.join(sorted(bad))} have no closed-form "
            "analytic model (sim engine only); analytic-capable schemes: "
            f"{', '.join(supported)}"
        )


def _print_trace_summary(report) -> None:
    """The ``--trace`` wrap-up: fault→recovery latencies plus top spans."""
    tel = report.details.get("telemetry")
    if tel is None:
        print("\n(no telemetry recorded)")
        return
    log = tel.events
    latencies = log.recovery_latency_s()
    print(
        f"\ntelemetry ({tel.timebase} time): {len(log)} events, "
        f"{len(tel.spans)} spans | {len(log.faults)} faults, "
        f"{len(log.recoveries)} recoveries, "
        f"{len(log.checkpoints)} checkpoints, {len(log.restarts)} restarts"
    )
    if latencies:
        print(
            f"fault→recovery latency: mean {sum(latencies) / len(latencies):.3g}s  "
            f"max {max(latencies):.3g}s  ({len(latencies)} recovered)"
        )
    from repro.obs.analysis import format_span_tree

    if tel.spans.spans:
        print("span summary (simulated seconds):")
        print(format_span_tree(tel.spans.spans))


def cmd_run(args) -> int:
    if args.engine == "analytic":
        _check_analytic_schemes([args.scheme])
    cfg = ExperimentConfig(
        matrix=args.matrix,
        nranks=args.ranks,
        n_faults=args.faults,
        tol=args.tol,
        seed=args.seed,
        scale=args.scale,
        cr_interval=_parse_cr_interval(args.cr_interval),
        trace=args.trace,
        engine=args.engine,
        fault_scope=args.fault_scope,
        backend=args.backend,
        victims_per_fault=args.victims_per_fault,
        preconditioner=args.precond,
    )
    exp = Experiment(cfg)
    if args.fault_scope != "process":
        print(
            f"fault scope {args.fault_scope}: up to "
            f"{exp.fault_scope_victims()} of {args.ranks} ranks lost per fault"
        )
    ff = exp.fault_free
    report = exp.run(args.scheme)
    print("fault-free:")
    print(ff.summary())
    print(f"\n{args.scheme} with {args.faults} faults:")
    print(report.summary())
    print(
        f"\nnormalized: iters {report.normalized_iterations(ff):.2f}x  "
        f"time {report.normalized_time(ff):.2f}x  "
        f"energy {report.normalized_energy(ff):.2f}x  "
        f"power {report.normalized_power(ff):.2f}x"
    )
    if args.trace:
        _print_trace_summary(report)
    return 0 if report.converged else 1


def cmd_suite(args) -> int:
    if args.engine == "analytic":
        _check_analytic_schemes(args.schemes)
    matrices = args.matrices or suite.names()
    base = ExperimentConfig(
        nranks=args.ranks,
        n_faults=args.faults,
        seed=args.seed,
        scale=args.scale,
        cr_interval=_parse_cr_interval(args.cr_interval),
        engine=args.engine,
        backend=args.backend,
        victims_per_fault=args.victims_per_fault,
    )
    out = run_suite(matrices, args.schemes, base=base)
    rows = []
    for name in matrices:
        norm = normalize_reports(out[name])
        rows.append([name, *(norm[s].iterations for s in args.schemes)])
    print(
        format_table(
            ["matrix", *args.schemes],
            rows,
            title=(
                f"normalized iterations ({args.ranks} ranks, "
                f"{args.faults} faults, FF=1)"
            ),
        )
    )
    return 0


def _campaign_spec(args):
    """Resolve the campaign grid from --preset plus overrides."""
    overrides = {}
    if args.matrices:
        overrides["matrices"] = tuple(args.matrices)
    if args.schemes:
        overrides["schemes"] = tuple(args.schemes)
    if args.ranks:
        overrides["nranks"] = tuple(args.ranks)
    if args.faults:
        overrides["fault_loads"] = tuple(args.faults)
    if args.seeds:
        overrides["seeds"] = tuple(args.seeds)
    if args.engines:
        overrides["engines"] = tuple(args.engines)
    if args.backends:
        overrides["backends"] = tuple(args.backends)
    if args.victims_per_fault:
        overrides["victims_per_fault"] = tuple(args.victims_per_fault)
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.cr_interval is not None:
        overrides["cr_interval"] = _parse_cr_interval(args.cr_interval)
    if args.trace:
        overrides["trace"] = True
    spec = (
        campaign_presets.preset(args.preset, **overrides)
        if args.preset
        else campaign_presets.CampaignSpec(**overrides)
    )
    if "analytic" in spec.engines:
        _check_analytic_schemes(spec.schemes)
    return spec


def cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignWatch,
        FleetMonitor,
        ProgressReporter,
        ResultStore,
        cell_event_to_line,
        format_attribution_summary,
        format_normalized_tables,
        format_summary,
        format_telemetry_summary,
        run_campaign,
    )
    from repro.campaign.store import DEFAULT_ROOT

    if args.list_presets:
        for name in campaign_presets.preset_names():
            print(campaign_presets.preset(name).describe())
        return 0
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.once and not args.watch:
        raise SystemExit("--once requires --watch")
    if args.heartbeat_interval < 0:
        raise SystemExit("--heartbeat-interval must be >= 0")
    spec = _campaign_spec(args)
    store = None if args.no_store else ResultStore(args.store or DEFAULT_ROOT)
    print(spec.describe())

    # machine-readable progress: one schema'd JSONL cell event per line
    event_sink = None
    progress_file = None
    if args.json_progress:
        if args.json_progress == "-":
            progress_stream = sys.stderr
        else:
            progress_file = open(args.json_progress, "w", encoding="utf-8")
            progress_stream = progress_file

        def event_sink(doc, _stream=progress_stream):
            print(cell_event_to_line(doc), file=_stream, flush=True)

    monitor = FleetMonitor(
        workers=args.workers,
        heartbeat_interval_s=args.heartbeat_interval,
        event_sink=event_sink,
    )
    # a live --watch repaint owns stderr; per-cell progress lines would
    # tear it, so they stay on only for --once (and plain) runs
    progress = ProgressReporter(
        len(spec),
        workers=args.workers,
        enabled=not args.quiet and not (args.watch and not args.once),
    )
    watch = CampaignWatch(monitor, once=args.once).start() if args.watch else None
    try:
        result = run_campaign(
            spec,
            store=store,
            max_workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            resume=args.resume,
            progress=progress,
            monitor=monitor,
        )
    finally:
        if watch is not None:
            watch.stop()
        if progress_file is not None:
            progress_file.close()
    if watch is not None:
        print()
        print(watch.final_frame())
    print()
    print(format_summary(result))
    print()
    print(format_normalized_tables(result))
    if args.trace:
        print()
        print(format_telemetry_summary(result))
        print()
        print(format_attribution_summary(result))
    if store is not None:
        print(
            f"\nrun manifest {result.run_id} persisted — inspect with "
            f"'repro report --campaign {result.run_id}'"
        )
    return 0 if result.n_failed == 0 else 1


def cmd_validate(args) -> int:
    """Run the model-validation grid under both engines and gate on the
    worst normalized drift (Table 6 as a standing check)."""
    from repro.campaign import ProgressReporter, ResultStore, run_campaign
    from repro.campaign.store import DEFAULT_ROOT
    from repro.engines.validate import (
        DEFAULT_DRIFT_THRESHOLD,
        drift_rows,
        format_drift_table,
        format_term_drift_table,
        max_drift,
        term_drift_rows,
    )

    overrides = {}
    if args.matrices:
        overrides["matrices"] = tuple(args.matrices)
    if args.schemes:
        overrides["schemes"] = tuple(args.schemes)
        # The grid runs under both engines: reject schemes the analytic
        # engine cannot model before any cell executes.
        _check_analytic_schemes(args.schemes)
    spec = campaign_presets.preset("model-validation", **overrides)
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_DRIFT_THRESHOLD
    )
    store = None if args.no_store else ResultStore(args.store or DEFAULT_ROOT)
    print(spec.describe())
    progress = ProgressReporter(
        len(spec), workers=args.workers, enabled=not args.quiet
    )
    result = run_campaign(
        spec, store=store, max_workers=args.workers, progress=progress
    )
    print()
    rows = drift_rows(result)
    print(format_drift_table(rows))
    if args.terms:
        print()
        print(format_term_drift_table(term_drift_rows(result)))
    if result.n_failed:
        print(f"\nFAIL: {result.n_failed} campaign cells failed")
        return 1
    if not rows:
        print("\nFAIL: no comparable sim/analytic cell pairs")
        return 1
    worst = max_drift(rows)
    verdict = "OK" if worst <= threshold else "FAIL"
    print(
        f"\n{verdict}: max normalized drift {worst:.3f} "
        f"(threshold {threshold:.3f}, {len(rows)} comparisons)"
    )
    return 0 if worst <= threshold else 1


def cmd_trace(args) -> int:
    """Walk a result store's traced cells: event streams, span
    summaries, per-scheme recovery-latency tables, JSONL export."""
    from pathlib import Path

    from repro.campaign import ResultStore
    from repro.campaign.store import DEFAULT_ROOT
    from repro.obs.export import event_to_row, write_trace_jsonl

    root = Path(args.store or DEFAULT_ROOT)
    if not (root / "index.db").exists():
        raise SystemExit(f"no result store at {root}")

    cells = {}  # label -> telemetry (store order; last writer wins)
    schemes = {}  # label -> scheme
    with ResultStore(root) as store:
        for entry in store.entries():
            if args.matrix and entry.cell.config.matrix != args.matrix:
                continue
            if args.scheme and entry.cell.scheme != args.scheme:
                continue
            tel = entry.report.details.get("telemetry")
            if tel is None:
                continue
            cells[entry.cell.label] = tel
            schemes[entry.cell.label] = entry.cell.scheme
    if not cells:
        print(f"no traced cells in {root} match the filters")
        return 1

    if args.export:
        n = write_trace_jsonl(args.export, cells)
        print(f"wrote {n} JSONL lines ({len(cells)} cells) to {args.export}")

    if args.events:
        for label, tel in cells.items():
            events = (
                tel.events.of_kind(args.kind) if args.kind else tel.events.events
            )
            rows = []
            for e in events:
                row = event_to_row(e)
                detail = " ".join(
                    f"{k}={v}"
                    for k, v in row.items()
                    if k not in ("kind", "iteration", "sim_time_s")
                )
                rows.append(
                    [row["kind"], row["iteration"], f"{row['sim_time_s']:.6g}", detail]
                )
            print(
                format_table(
                    ["kind", "iter", "sim_time_s", "detail"],
                    rows or [["-", "-", "-", "(no events)"]],
                    title=f"{label}: event stream",
                )
            )
            print()

    if args.spans:
        from repro.obs.analysis import format_span_tree

        for label, tel in cells.items():
            print(f"{label}: span summary ({tel.timebase} seconds)")
            print(format_span_tree(tel.spans.spans))
            print()

    # per-scheme fault→recovery latency rollup (always printed)
    by_scheme: dict[str, list[float]] = {}
    fault_counts: dict[str, int] = {}
    for label, tel in cells.items():
        scheme = schemes[label]
        by_scheme.setdefault(scheme, []).extend(tel.events.recovery_latency_s())
        fault_counts[scheme] = fault_counts.get(scheme, 0) + len(tel.events.faults)
    rows = []
    for scheme in sorted(by_scheme):
        lat = by_scheme[scheme]
        rows.append(
            [
                scheme,
                fault_counts[scheme],
                len(lat),
                f"{sum(lat) / len(lat):.3g}" if lat else "-",
                f"{max(lat):.3g}" if lat else "-",
            ]
        )
    print(
        format_table(
            ["scheme", "faults", "recovered", "mean_latency_s", "max_latency_s"],
            rows,
            title=f"fault→recovery latency by scheme ({len(cells)} traced cells)",
        )
    )
    return 0


def _load_records(args) -> list:
    """Records for report/doctor: a JSONL trace or a result store."""
    from pathlib import Path

    from repro.obs.analysis import (
        records_from_jsonl,
        records_from_store,
        select_records,
    )

    if args.jsonl and args.store:
        raise SystemExit("--jsonl and --store are mutually exclusive")
    if args.jsonl:
        records = records_from_jsonl(args.jsonl)
    else:
        from repro.campaign import ResultStore
        from repro.campaign.store import DEFAULT_ROOT

        root = Path(args.store or DEFAULT_ROOT)
        if not (root / "index.db").exists():
            raise SystemExit(f"no result store at {root}")
        with ResultStore(root) as store:
            records = records_from_store(store)
    return select_records(records, matrix=args.matrix, scheme=args.scheme)


def cmd_report(args) -> int:
    """Phase attribution waterfalls (+ rollup, diff, HTML, Prometheus)."""
    from pathlib import Path

    from repro.obs.analysis import (
        attribute_record,
        build_span_tree,
        critical_path,
        diff_runs,
        format_attribution,
        format_attribution_rollup,
        format_critical_path,
        format_run_diff,
        html_report,
        prometheus_text,
        scheme_rollup,
    )
    from repro.obs.metrics import MetricsRegistry

    manifest = None
    if args.campaign:
        from repro.campaign import ResultStore
        from repro.campaign.store import DEFAULT_ROOT

        if args.jsonl:
            raise SystemExit("--campaign reads a result store, not --jsonl")
        root = Path(args.store or DEFAULT_ROOT)
        if not (root / "index.db").exists():
            raise SystemExit(f"no result store at {root}")
        with ResultStore(root) as mstore:
            manifest = (
                mstore.latest_manifest()
                if args.campaign == "latest"
                else mstore.get_manifest(args.campaign)
            )
        if manifest is None:
            raise SystemExit(
                "no campaign manifest stored yet"
                if args.campaign == "latest"
                else f"no campaign manifest for run id {args.campaign!r}"
            )

    records = _load_records(args)
    if not records and manifest is None:
        print("no cells match the filters")
        return 1

    attributions = [attribute_record(r) for r in records]
    for attr in attributions:
        print(format_attribution(attr))
        print()
    rollup = {}
    if len(records) > 1:
        rollup = scheme_rollup(attributions)
        print("per-scheme rollup:")
        print(format_attribution_rollup(rollup))
        print()
    traced = [r for r in records if r.telemetry is not None]
    if traced:
        longest = max(
            traced,
            key=lambda r: sum(s.duration_s for s in r.telemetry.spans.spans),
        )
        print(f"{longest.label}:")
        print(
            format_critical_path(
                critical_path(build_span_tree(longest.telemetry.spans.spans))
            )
        )

    diff_text = None
    if args.diff:
        by_label = {r.label: r for r in records}
        missing = [label for label in args.diff if label not in by_label]
        if missing:
            known = "\n  ".join(sorted(by_label))
            raise SystemExit(
                f"no cell labelled {missing[0]!r}; have:\n  {known}"
            )
        diff_text = format_run_diff(
            diff_runs(by_label[args.diff[0]], by_label[args.diff[1]])
        )
        print()
        print(diff_text)

    if manifest is not None:
        from repro.campaign.manifest import format_manifest

        print()
        print(format_manifest(manifest))

    if args.prometheus:
        merged = MetricsRegistry()
        for r in traced:
            merged.merge(r.telemetry.metrics)
        Path(args.prometheus).write_text(prometheus_text(merged))
        print(f"\nwrote Prometheus exposition to {args.prometheus}")

    if args.html:
        from repro.campaign.manifest import manifest_to_doc

        html = html_report(
            title="repro report",
            attributions=attributions + list(rollup.values()),
            span_trees={
                r.label: r.telemetry.spans.spans for r in traced
            },
            diff_text=diff_text,
            manifest=manifest_to_doc(manifest) if manifest is not None else None,
        )
        Path(args.html).write_text(html)
        print(f"wrote HTML report to {args.html}")
    return 0


def cmd_doctor(args) -> int:
    """Anomaly detectors over a trace or store; non-zero on findings."""
    from pathlib import Path

    from repro.obs.analysis import detectors, format_findings, run_detectors

    if args.list_detectors:
        for det in detectors():
            print(f"{det.name:<22} [{det.scope}] {det.description}")
        return 0
    history = None
    if args.history:
        from repro.obs.history import MetricsHistory

        if not Path(args.history).exists():
            raise SystemExit(f"no metrics history at {args.history}")
        history = MetricsHistory.load(args.history)
    # with only --history given (no trace/store around), doctor the
    # serving evidence alone instead of demanding a result store
    from repro.campaign.store import DEFAULT_ROOT

    have_trace_source = bool(
        args.jsonl or args.store or (Path(DEFAULT_ROOT) / "index.db").exists()
    )
    records = _load_records(args) if have_trace_source else []
    # fleet evidence: the campaign run manifest (latest, or --run-id)
    manifest = None
    if not args.jsonl:
        root = Path(args.store or DEFAULT_ROOT)
        if (root / "index.db").exists():
            from repro.campaign import ResultStore

            with ResultStore(root) as mstore:
                manifest = (
                    mstore.get_manifest(args.run_id)
                    if args.run_id
                    else mstore.latest_manifest()
                )
            if args.run_id and manifest is None:
                raise SystemExit(
                    f"no campaign manifest for run id {args.run_id!r}"
                )
    # an explicit cell filter that matches nothing is still an error —
    # the implicitly-loaded manifest must not mask a typo'd --matrix
    filtered = bool(args.matrix or args.scheme)
    if not records and (
        (filtered and have_trace_source)
        or (history is None and manifest is None)
    ):
        print("no cells match the filters")
        return 1
    try:
        findings = run_detectors(
            records, args.detectors, history=history, manifest=manifest
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    n_det = len(args.detectors) if args.detectors else len(detectors())
    extra = f", history {len(history)} sample(s)" if history is not None else ""
    if manifest is not None:
        extra += f", manifest {manifest.run_id}"
    print(
        f"doctor: {len(records)} cell(s), {n_det} detector(s){extra}"
    )
    print(format_findings(findings))
    return 1 if findings else 0


def cmd_project(args) -> int:
    from repro.engines import AnalyticEngine

    data = AnalyticEngine.project(args.sizes)

    def fmt(x):
        return "HALT" if (math.isinf(x) or math.isnan(x)) else round(x, 3)

    rows = []
    for i, n in enumerate(sorted(args.sizes)):
        row = [n]
        for s in FIGURE9_SCHEMES:
            p = data[s][i]
            row += [fmt(p.t_res_ratio), fmt(p.e_res_ratio)]
        rows.append(row)
    headers = ["procs"]
    for s in FIGURE9_SCHEMES:
        headers += [f"{s} T", f"{s} E"]
    print(format_table(headers, rows, title="projected resilience overhead"))
    return 0


def cmd_serve(args) -> int:
    """Stand up the async serving tier (DESIGN.md §5h, §5i)."""
    import asyncio
    import contextlib
    import signal as signal_mod

    from repro.campaign import ResultStore
    from repro.campaign.store import DEFAULT_ROOT
    from repro.obs.history import MetricsHistory
    from repro.obs.logging import get_logger
    from repro.serve import ServeApp, ServeServer, ServingCore

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.cache_size < 0:
        raise SystemExit("--cache-size must be >= 0")
    if args.sample_interval <= 0:
        raise SystemExit("--sample-interval must be > 0")
    if args.history_capacity < 1:
        raise SystemExit("--history-capacity must be >= 1")
    if args.latency_buckets is not None and (
        not args.latency_buckets
        or sorted(args.latency_buckets) != args.latency_buckets
    ):
        raise SystemExit("--latency-buckets must be ascending seconds")
    log = get_logger("cli.serve")
    store = None if args.no_store else ResultStore(args.store or DEFAULT_ROOT)
    core = ServingCore(
        store,
        cache_size=args.cache_size,
        workers=args.workers,
        latency_buckets=(
            tuple(args.latency_buckets) if args.latency_buckets else None
        ),
    )
    history = MetricsHistory(
        capacity=args.history_capacity, interval_s=args.sample_interval
    )
    app = ServeApp(core, history=history, default_backend=args.backend)
    server = ServeServer(app.handle, host=args.host, port=args.port)

    async def _main() -> None:
        await server.start()
        where = "no store" if store is None else store.root
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"({args.workers} workers, LRU {args.cache_size}, {where})",
            flush=True,
        )
        print(
            "endpoints: GET /healthz /metrics /metrics/history /slo "
            "/v1/store/stats /v1/reports  POST /v1/solve /v1/project",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop.set)
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop.wait())
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        serve_task.cancel()
        stop_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        await server.stop()

    exit_via_interrupt = False
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        exit_via_interrupt = True
    finally:
        # graceful-shutdown flush: one last sample, one final structured
        # log line with lifetime counters, and the history artifact
        history.sample(core.metrics)
        log.info("shutdown", **app.lifetime_summary())
        if args.history_out:
            history.save(args.history_out)
            print(f"metrics history -> {args.history_out}", flush=True)
        core.close()
        if store is not None:
            store.close()
    if exit_via_interrupt:
        print("\nshutting down")
    return 0


def cmd_top(args) -> int:
    """Live dashboard against a running serve instance."""
    from repro.serve.top import run_top

    if args.interval <= 0:
        raise SystemExit("--interval must be > 0")
    if args.window <= 0:
        raise SystemExit("--window must be > 0")
    try:
        return run_top(
            args.host,
            args.port,
            interval_s=args.interval,
            window_s=args.window,
            once=args.once,
        )
    except ConnectionRefusedError:
        raise SystemExit(
            f"no server at {args.host}:{args.port} — start one with "
            "'repro serve'"
        )


def cmd_mtbf(args) -> int:
    est = MtbfEstimator()
    rows = [
        [
            cls.label,
            cls.kind.value,
            est.system_mtbf(cls, PETASCALE) / 24.0,
            est.system_mtbf(cls, EXASCALE),
        ]
        for cls in FaultClass
    ]
    print(
        format_table(
            ["class", "kind", "petascale MTBF (days)", "exascale MTBF (h)"],
            rows,
            title="Figure-1 MTBF estimates",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.obs.logging import configure_logging

    # structured logs go to stderr (and an optional rotating file);
    # stdout stays reserved for the human-facing tables and JSON
    level = args.log_level or ("info" if args.command == "serve" else None)
    if level is not None or args.log_file is not None:
        configure_logging(level=level, file=args.log_file)
    return {
        "run": cmd_run,
        "suite": cmd_suite,
        "campaign": cmd_campaign,
        "validate": cmd_validate,
        "trace": cmd_trace,
        "report": cmd_report,
        "doctor": cmd_doctor,
        "project": cmd_project,
        "mtbf": cmd_mtbf,
        "serve": cmd_serve,
        "top": cmd_top,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
