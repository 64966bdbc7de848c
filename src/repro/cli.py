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

``run``, ``suite`` and ``campaign`` accept ``--engine`` to evaluate
cells with the numeric simulator (default) or the Section-3 closed-form
models; ``validate`` runs the same grid under both and gates on their
drift.  ``trace``, ``report`` and ``doctor`` read the same records —
each cell's config, scheme and full report — from a result store or
from a ``trace --export`` file, which holds the store's own payloads,
one cell per line.  ``report`` renders phase-attribution waterfalls
(plus run diffs, Prometheus text, and an HTML page of the printed
text), and ``doctor`` runs the anomaly detectors, exiting non-zero on
findings.  ``serve`` stands up the async HTTP tier (`repro.serve`) over
the store and the engines — solve and projection queries,
stored-report retrieval and Prometheus ``/metrics``.  Everything prints
plain text; only ``campaign``/``validate`` write files (their result
store, ``.repro-cache/`` by default), ``trace --export`` and
``report --html``/``--prometheus``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sqlite3
import sys
from dataclasses import fields
from pathlib import Path

# The read side only: a subcommand that solves or models imports what it
# runs, so ``report``, ``trace`` and a cached resume never load the solver.
from repro.campaign import spec as campaign_presets
from repro.campaign.runner import CampaignRunner, run_campaign
from repro.campaign.store import DEFAULT_ROOT, ResultStore
from repro.core.backends import PRECONDITIONERS
from repro.core.recovery.factory import scheme_names
from repro.engines.base import engine_names
from repro.harness.experiment import FAULT_SCOPES, ExperimentConfig
from repro.harness.reporting import format_table
from repro.matrices import suite


#: Flags that set a cell's config, each declared once and keyed by the
#: ExperimentConfig field it sets ("scheme" picks the cell's scheme):
#: ``(flag, sweep flag, argparse keywords)``.  Where a subcommand sweeps
#: a field it takes the sweep flag (the same flag when ``None``) with
#: ``nargs="+"``, stored under the field's CampaignSpec name.
_CONFIG_FLAGS: dict[str, tuple[str, str | None, dict]] = {
    "matrix": (
        "--matrix", "--matrices",
        {
            "choices": suite.names(),
            "help": "test matrix; swept, the grid's matrix set (with "
            "--preset, a restriction of the preset's)",
        },
    ),
    "scheme": (
        "--scheme", "--schemes",
        {
            "choices": scheme_names(),
            "help": "resilience scheme; swept, the grid's scheme set "
            "(with --preset, a restriction of the preset's)",
        },
    ),
    "n_faults": ("--faults", None, {"type": int, "metavar": "FAULTS"}),
    "nranks": ("--ranks", None, {"type": int, "metavar": "RANKS"}),
    "tol": ("--tol", None, {"type": float}),
    "scale": ("--scale", None, {"type": float}),
    "seed": ("--seed", "--seeds", {"type": int, "help": "experiment RNG seed"}),
    "engine": (
        "--engine", None,
        {
            "choices": engine_names(),
            "help": "numeric simulation (sim) or Section-3 closed-form "
            "models (analytic)",
        },
    ),
    "fault_scope": (
        "--fault-scope", None,
        {
            "choices": list(FAULT_SCOPES),
            "help": "blast radius per fault: one rank (process, the "
            "paper's protocol), every rank on the victim's node, or all "
            "ranks",
        },
    ),
    "victims_per_fault": (
        "--victims-per-fault", None,
        {
            "type": int, "metavar": "K",
            "help": "ranks lost simultaneously per fault event (default 1, "
            "the paper's protocol; >1 exercises multi-loss recovery)",
        },
    ),
    "preconditioner": (
        "--precond", None,
        {
            "choices": list(PRECONDITIONERS),
            "help": "optional preconditioner (part of the cell's config "
            "and cache key)",
        },
    ),
    "cr_interval": (
        "--cr-interval", None,
        {"help": "CR cadence: 'paper' (100 iters), 'young', or an integer"},
    ),
    "trace": (
        "--trace", None,
        {
            "action": "store_true",
            "help": "record telemetry (events, spans, metrics) and print "
            "its fault→recovery summary; a campaign persists it in the store",
        },
    ),
}

#: Where a swept config flag stores its values: the CampaignSpec name.
_SWEEP_DEST = {
    field: axis for axis, (field, _, _) in campaign_presets.AXES.items()
} | {"scheme": "schemes"}

_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

#: The config flags of each cell-running subcommand: ``(fields, the
#: fields it sweeps, defaults)``.  ``campaign`` sweeps every CampaignSpec
#: axis; its flags default to None, which keeps the preset's value.
_COMMAND_FLAGS: dict[str, tuple[tuple[str, ...], tuple[str, ...], dict]] = {
    "run": (
        tuple(_CONFIG_FLAGS),
        (),
        {**_CONFIG_DEFAULTS, "scheme": "LI-DVFS", "n_faults": 5, "nranks": 64},
    ),
    "suite": (
        ("matrix", "scheme", "n_faults", "nranks", "scale", "seed", "engine",
         "cr_interval", "victims_per_fault"),
        ("matrix", "scheme"),
        {
            **_CONFIG_DEFAULTS,
            "matrix": None,
            "scheme": ["RD", "F0", "LI", "CR-D"],
            "nranks": 64,
        },
    ),
    "campaign": (
        (*_SWEEP_DEST, "scale", "tol", "cr_interval", "trace"),
        tuple(_SWEEP_DEST),
        {},
    ),
}


def _add_config_flags(parser, names, sweep=(), defaults=None) -> None:
    """Add the named :data:`_CONFIG_FLAGS` rows to ``parser``."""
    for name in names:
        flag, sweep_flag, kwargs = _CONFIG_FLAGS[name]
        kwargs = {**kwargs, "dest": name}
        if name in sweep:
            flag = sweep_flag or flag
            kwargs.update(nargs="+", dest=_SWEEP_DEST[name])
        if defaults and name in defaults:
            kwargs["default"] = defaults[name]
        parser.add_argument(flag, **kwargs)


def _config_values(args, *, spec: bool = False) -> dict:
    """``{dest: value}`` for every config flag of ``args.command`` that
    has a value, ``--cr-interval`` parsed.  With ``spec``, keyed by
    CampaignSpec field: a flag of an axis the command does not sweep
    becomes that axis with one value."""
    names, sweep, _ = _COMMAND_FLAGS[args.command]
    out = {}
    for name in names:
        dest = _SWEEP_DEST[name] if name in sweep else name
        value = getattr(args, dest)
        if value is None:
            continue
        if name == "cr_interval":
            value = _parse_cr_interval(value)
        if spec and name in _SWEEP_DEST and name not in sweep:
            dest, value = _SWEEP_DEST[name], (value,)
        out[dest] = value
    return out


def _add_store_flags(parser, *, writes: bool) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default .repro-cache)",
    )
    if writes:
        parser.add_argument(
            "--no-store", action="store_true",
            help="run fully in memory: nothing read from or written to disk",
        )


def _add_record_flags(parser) -> None:
    """Where ``report``/``doctor`` read cells from, and which cells."""
    _add_store_flags(parser, writes=False)
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="read a 'repro trace --export' JSONL file instead of a store",
    )
    parser.add_argument(
        "--matrix", default=None,
        help="only cells of this matrix",
    )
    parser.add_argument(
        "--scheme", default=None,
        help="only cells of this scheme (FF for baselines)",
    )


def _add_fleet_flags(parser) -> None:
    """How ``campaign``/``validate`` run their cells and where they keep them."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 = serial in-process execution",
    )
    _add_store_flags(parser, writes=True)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )


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
    _add_config_flags(run, *_COMMAND_FLAGS["run"])

    sweep = sub.add_parser("suite", help="Figure-5-style sweep over matrices")
    _add_config_flags(sweep, *_COMMAND_FLAGS["suite"])

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
    _add_config_flags(camp, *_COMMAND_FLAGS["campaign"])
    _add_fleet_flags(camp)
    camp.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="serve cells already in the store from cache (default on; "
        "--no-resume recomputes everything and overwrites)",
    )
    camp.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget (default: none)",
    )
    camp.add_argument(
        "--retries", type=int, default=1,
        help="retries per cell on crash or error (default 1)",
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
        "--list-presets", action="store_true",
        help="print the preset grids and exit",
    )

    val = sub.add_parser(
        "validate",
        help="model-vs-sim drift gate: run the validation grid under "
        "both engines and compare normalized T_res / P / E_res",
    )
    _add_config_flags(val, ["matrix"], sweep=["matrix"])
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
    _add_fleet_flags(val)
    val.add_argument(
        "--terms", action="store_true",
        help="also print per-term drift (which Section-3 phase term "
        "diverges, not just the aggregate ratios)",
    )

    trace = sub.add_parser(
        "trace",
        help="inspect/export the telemetry a traced campaign persisted",
    )
    _add_store_flags(trace, writes=False)
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
        help="write the selected traced cells as JSONL, one store payload "
        "(config, scheme, report with its telemetry) per line",
    )

    rep = sub.add_parser(
        "report",
        help="phase attribution (+ optional diff, HTML, Prometheus) "
        "from stored or exported telemetry",
    )
    _add_record_flags(rep)
    rep.add_argument(
        "--diff", nargs=2, default=None, metavar=("LABEL_A", "LABEL_B"),
        help="structural diff of two cells by label",
    )
    rep.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write the printed report as a self-contained HTML page",
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
    _add_record_flags(doc)
    doc.add_argument(
        "--detectors", nargs="+", default=None, metavar="NAME",
        help="run only these detectors (default: all)",
    )
    doc.add_argument(
        "--list-detectors", action="store_true",
        help="print the detectors and exit",
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
    _add_store_flags(srv, writes=True)
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
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

    Argparse ``choices`` accepts every scheme name, but the
    closed-form engine only models a subset — without this gate a
    ``campaign --engine analytic --schemes CR-ML`` would burn through
    the grid before dying mid-run on ``UnsupportedSchemeError``.
    """
    from repro.engines.base import analytic_scheme_names

    supported = analytic_scheme_names()
    bad = [s for s in schemes if s != "FF" and s not in supported]
    if bad:
        raise SystemExit(
            f"scheme(s) {', '.join(sorted(bad))} have no closed-form "
            "analytic model (sim engine only); analytic-capable schemes: "
            f"{', '.join(supported)}"
        )


@contextlib.contextmanager
def _usage_errors(args):
    """Turn a ValueError raised while argument values become objects
    (configs, specs, runners) into argparse's usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        args.usage_error(str(exc))


def _store_root(args) -> Path:
    return Path(getattr(args, "store", None) or DEFAULT_ROOT)


def _store(args) -> ResultStore | None:
    """The store ``--store`` names, created if need be; None with ``--no-store``."""
    return None if args.no_store else ResultStore(_store_root(args))


def _open_existing_store(args) -> ResultStore:
    """The store ``--store`` names, which must already have an index."""
    root = _store_root(args)
    if not (root / "index.db").exists():
        raise SystemExit(f"no result store at {root}")
    return ResultStore(root)


def _stored_manifest(args, run_id: str | None):
    """The run manifest ``run_id`` names in the ``--store`` store, or
    its latest with ``run_id=None``; ``None`` when there is none.
    Raises :class:`~repro.campaign.manifest.ManifestError` for a
    manifest in another schema."""
    with _open_existing_store(args) as store:
        if run_id is None:
            return store.latest_manifest()
        return store.get_manifest(run_id)


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
    from repro.harness.experiment import Experiment

    values = _config_values(args)
    scheme = values.pop("scheme")
    if args.engine == "analytic":
        _check_analytic_schemes([scheme])
    with _usage_errors(args):
        cfg = ExperimentConfig(**values)
    exp = Experiment(cfg)
    if args.fault_scope != "process":
        print(
            f"fault scope {args.fault_scope}: up to "
            f"{exp.fault_scope_victims()} of {args.nranks} ranks lost per fault"
        )
    ff = exp.fault_free
    report = exp.run(scheme)
    print("fault-free:")
    print(ff.summary())
    print(f"\n{scheme} with {args.n_faults} faults:")
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
    from repro.harness.normalize import normalize_reports

    spec = _campaign_spec(args)
    result = run_campaign(spec, store=None)
    failed = [r for r in result.results if not r.ok]
    for r in failed:
        print(f"{r.cell.label}: {r.error}", file=sys.stderr)
    if failed:
        return 1
    by_matrix = {config.matrix: reports for config, reports in result.groups()}
    rows = []
    for name in spec.matrices:
        norm = normalize_reports(by_matrix[name])
        rows.append([name, *(norm[s].iterations for s in spec.schemes)])
    print(
        format_table(
            ["matrix", *spec.schemes],
            rows,
            title=(
                f"normalized iterations ({args.nranks} ranks, "
                f"{args.n_faults} faults, FF=1)"
            ),
        )
    )
    return 0


def _campaign_spec(args):
    """The grid a ``campaign`` (``--preset`` plus overrides) or a
    ``suite`` (its flags: one value per axis, a matrix and a scheme
    set) runs."""
    overrides = _config_values(args, spec=True)
    preset = getattr(args, "preset", None)
    with _usage_errors(args):
        spec = (
            campaign_presets.preset(preset, **overrides)
            if preset
            else campaign_presets.CampaignSpec(**overrides)
        )
        spec.experiment_configs()  # every grid point is a valid config
    if "analytic" in spec.engines:
        _check_analytic_schemes(spec.schemes)
    return spec


def cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignWatch,
        FleetMonitor,
        ProgressReporter,
        cell_event_to_line,
        format_attribution_summary,
        format_normalized_tables,
        format_summary,
        format_telemetry_summary,
    )

    if args.list_presets:
        for name in campaign_presets.preset_names():
            print(campaign_presets.preset(name).describe())
        return 0
    if args.once and not args.watch:
        raise SystemExit("--once requires --watch")
    spec = _campaign_spec(args)

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

    monitor = FleetMonitor(event_sink=event_sink)
    # a live --watch repaint owns stderr; per-cell progress lines would
    # tear it, so they stay on only for --once (and plain) runs
    progress = ProgressReporter(
        monitor, enabled=not args.quiet and not (args.watch and not args.once)
    )
    store = _store(args)
    with _usage_errors(args):
        runner = CampaignRunner(
            spec,
            store=store,
            max_workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            resume=args.resume,
            progress=progress,
            monitor=monitor,
        )
    print(spec.describe())
    watch = CampaignWatch(monitor, once=args.once).start() if args.watch else None
    try:
        result = runner.run()
    finally:
        if watch is not None:
            watch.stop()
        if progress_file is not None:
            progress_file.close()
        if store is not None:
            store.close()  # its WAL checkpointed into index.db
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
    from repro.campaign import ProgressReporter
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
    with _usage_errors(args):
        runner = CampaignRunner(spec, store=_store(args), max_workers=args.workers)
    runner.progress = ProgressReporter(runner.monitor, enabled=not args.quiet)
    print(spec.describe())
    result = runner.run()
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
    summaries, per-scheme recovery-latency tables, payload export."""
    from repro.campaign import CampaignCell
    from repro.campaign.store import payload_line
    from repro.obs.export import event_to_row

    records = [r for r in _load_records(args) if r.telemetry is not None]
    if not records:
        print(f"no traced cells in {_store_root(args)} match the filters")
        return 1

    if args.export:
        Path(args.export).write_text(
            "".join(
                payload_line(CampaignCell(r.config, r.scheme), r.report) + "\n"
                for r in records
            )
        )
        print(f"wrote {len(records)} cells to {args.export}, one payload per line")

    if args.events:
        for r in records:
            events = r.telemetry.events
            events = events.of_kind(args.kind) if args.kind else events.events
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
                    title=f"{r.label}: event stream",
                )
            )
            print()

    if args.spans:
        from repro.obs.analysis import format_span_tree

        for r in records:
            print(f"{r.label}: span summary ({r.telemetry.timebase} seconds)")
            print(format_span_tree(r.telemetry.spans.spans))
            print()

    # per-scheme fault→recovery latency rollup (always printed)
    by_scheme: dict[str, list[float]] = {}
    fault_counts: dict[str, int] = {}
    for r in records:
        events = r.telemetry.events
        by_scheme.setdefault(r.scheme, []).extend(events.recovery_latency_s())
        fault_counts[r.scheme] = fault_counts.get(r.scheme, 0) + len(events.faults)
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
            title=f"fault→recovery latency by scheme ({len(records)} traced cells)",
        )
    )
    return 0


def _load_records(args) -> list:
    """The selected cells of a result store, or of a ``trace --export``
    file (``--jsonl``), as analysis records."""
    from repro.campaign.store import load_payload_lines
    from repro.obs.analysis import records_from_cells, select_records

    jsonl = getattr(args, "jsonl", None)  # trace reads only a store
    if jsonl and args.store:
        raise SystemExit("--jsonl and --store are mutually exclusive")
    if jsonl:
        try:
            entries = load_payload_lines(jsonl)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
    else:
        with _open_existing_store(args) as store:
            entries = list(store.entries())
    return select_records(
        records_from_cells(entries), matrix=args.matrix, scheme=args.scheme
    )


def cmd_report(args) -> int:
    """Phase attribution waterfalls (+ rollup, diff, HTML, Prometheus).

    The report goes to stdout; ``--html`` writes that same text as a
    page, and the lines naming written files go to stderr.
    """
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
        from repro.campaign.manifest import ManifestError

        if args.jsonl:
            raise SystemExit("--campaign reads a result store, not --jsonl")
        run_id = None if args.campaign == "latest" else args.campaign
        try:
            manifest = _stored_manifest(args, run_id)
        except ManifestError as exc:
            raise SystemExit(f"report: {exc}") from None
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

    lines: list[str] = []  # the report, one printed line (or block) each
    attributions = [attribute_record(r) for r in records]
    for attr in attributions:
        lines += [format_attribution(attr), ""]
    if len(records) > 1:
        rollup = format_attribution_rollup(scheme_rollup(attributions))
        lines += ["per-scheme rollup:", rollup, ""]
    traced = [r for r in records if r.telemetry is not None]
    if traced:
        longest = max(
            traced,
            key=lambda r: sum(s.duration_s for s in r.telemetry.spans.spans),
        )
        spans = longest.telemetry.spans.spans
        lines += [
            f"{longest.label}:",
            format_critical_path(critical_path(build_span_tree(spans))),
        ]

    if args.diff:
        by_label = {r.label: r for r in records}
        missing = [label for label in args.diff if label not in by_label]
        if missing:
            known = "\n  ".join(sorted(by_label))
            raise SystemExit(
                f"no cell labelled {missing[0]!r}; have:\n  {known}"
            )
        diff = diff_runs(by_label[args.diff[0]], by_label[args.diff[1]])
        lines += ["", format_run_diff(diff)]

    if manifest is not None:
        from repro.campaign.manifest import format_manifest

        lines += ["", format_manifest(manifest)]

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.prometheus:
        merged = MetricsRegistry()
        for r in traced:
            merged.merge(r.telemetry.metrics)
        Path(args.prometheus).write_text(prometheus_text(merged))
        print(f"wrote Prometheus exposition to {args.prometheus}", file=sys.stderr)
    if args.html:
        Path(args.html).write_text(html_report(text))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    return 0


def cmd_doctor(args) -> int:
    """Anomaly detectors over a trace or store; non-zero on findings."""
    from repro.obs.analysis import DETECTORS, format_findings, run_detectors
    from repro.obs.analysis.detectors import describe

    if args.list_detectors:
        for name, (scope, check) in DETECTORS.items():
            print(f"{name:<22} [{scope}] {describe(check)}")
        return 0
    records = _load_records(args)
    # fleet evidence: the campaign run manifest (latest, or --run-id); one
    # in another schema costs only the fleet detectors
    manifest = None
    if not args.jsonl:
        from repro.campaign.manifest import ManifestError

        try:
            manifest = _stored_manifest(args, args.run_id or None)
        except ManifestError as exc:
            print(f"doctor: fleet detectors skipped: {exc}", file=sys.stderr)
        else:
            if args.run_id and manifest is None:
                raise SystemExit(f"no campaign manifest for run id {args.run_id!r}")
    # an explicit cell filter that matches nothing is still an error —
    # the implicitly-loaded manifest must not mask a typo'd --matrix
    filtered = bool(args.matrix or args.scheme)
    if not records and (filtered or manifest is None):
        print("no cells match the filters")
        return 1
    try:
        findings = run_detectors(records, args.detectors, manifest=manifest)
    except ValueError as exc:
        raise SystemExit(str(exc))
    # without a manifest the fleet detectors were skipped: name what ran
    ran = [
        name
        for name in args.detectors or DETECTORS
        if manifest is not None or DETECTORS[name][0] != "fleet"
    ]
    extra = f", manifest {manifest.run_id}" if manifest is not None else ""
    print(
        f"doctor: {len(records)} cell(s), {len(ran)} detector(s)"
        f" ({', '.join(ran)}){extra}"
    )
    print(format_findings(findings))
    return 1 if findings else 0


def cmd_project(args) -> int:
    from repro.core.models.projection import FIGURE9_SCHEMES, project

    with _usage_errors(args):
        data = project(sorted(args.sizes))

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


def _load_compute_stack() -> None:
    """Import every engine, scheme and matrix generator now: ``serve``
    does so before it prints its address, so no request pays an import."""
    import repro.matrices.generators  # noqa: F401  (a cold matrix build)
    from repro.core.recovery.factory import make_scheme
    from repro.engines.base import make_engine

    for name in engine_names():
        make_engine(name)
    for name in scheme_names():
        make_scheme(name)


def cmd_serve(args) -> int:
    """Stand up the async serving tier (DESIGN.md §5h, §5i)."""
    import asyncio
    import contextlib
    import signal as signal_mod

    from repro.obs.logging import get_logger
    from repro.serve import ServeApp, ServeServer, ServingCore

    log = get_logger("cli.serve")
    store = _store(args)
    with _usage_errors(args):
        core = ServingCore(store, cache_size=args.cache_size, workers=args.workers)
    _load_compute_stack()
    app = ServeApp(core)
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
            "endpoints: GET /healthz /metrics /v1/store/stats /v1/reports  "
            "POST /v1/solve /v1/project",
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
        # graceful shutdown: one final structured log line with
        # lifetime counters
        log.info("shutdown", **app.lifetime_summary())
        core.close()
        if store is not None:
            store.close()
    if exit_via_interrupt:
        print("\nshutting down")
    return 0


def cmd_mtbf(args) -> int:
    from repro.faults.events import FaultClass
    from repro.faults.mtbf import EXASCALE, PETASCALE, MtbfEstimator

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
    command = {
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
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a reader that went away shows up here
        return code
    except BrokenPipeError:
        # ``repro report | head``: stop quietly, and leave nothing for
        # the interpreter's exit-time flush to trip on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except sqlite3.DatabaseError as exc:
        if isinstance(exc, sqlite3.OperationalError):
            raise  # locked, busy or unwritable: deleting would not help
        raise SystemExit(
            f"unreadable result store index {_store_root(args) / 'index.db'} "
            f"(sqlite: {exc}); deleting it drops its cells, which are then "
            "recomputed"
        ) from None


if __name__ == "__main__":
    sys.exit(main())
