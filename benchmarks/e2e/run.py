"""Run one workload of the end-to-end benchmark in this (fresh) process.

    python3 benchmarks/e2e/run.py --workload sim_grid --seed 0 --seconds 17 --trace 0

``--trace 0``  fixture -> 1 discarded + 5 timed fresh-process launches
               (``setup_s``) -> 2 discarded warm-up repetitions -> timed
               repetitions of identical work from identical state, at
               least 6, until ``--seconds`` seconds have passed since
               the fixture was built: launches, warm-ups and repetitions
               share them, so a run takes as long on a slow hour as on
               a fast one and only the number of repetitions gives.  The
               calibration kernel runs beside all of it (``calib.py``);
               every launch and repetition is scaled to
               reference-machine seconds by the kernel slices that ran
               while it did, and a metric is the median over
               repetitions.
``--trace 1``  (alias ``--layers``) a separate run: the workload with and
               without spans around the public calls, the span file under
               ``benchmarks/e2e/out/``, and the per-layer ledger.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import calib
import guards
import measure
import procs

#: Shape of a measured run; see the module docstring.  The driver's 92
#: runs share 3 420 s and it refuses a schedule that only might not fit,
#: while everything takes 1.5 times as long on this host's slow hours as
#: on its fast ones: on a slow hour 6 launches, 2 warm-ups and the floor
#: of 6 repetitions just fill the 17 s, on a fast one 10 repetitions do.
LAUNCHES = 5
WARMUPS = 2
MIN_REPETITIONS = 6
#: Untraced/traced repetition pairs of a ``--trace 1`` run.
TRACE_PAIRS = 1


@dataclass(frozen=True)
class Shape:
    discarded_launches: int
    launches: int
    warmups: int
    min_repetitions: int
    seconds: float
    trace_pairs: int

    @classmethod
    def of(cls, seconds: float, quick: bool) -> "Shape":
        if quick:
            return cls(0, 1, 1, 2, 0.0, 1)
        return cls(1, LAUNCHES, WARMUPS, MIN_REPETITIONS, seconds, TRACE_PAIRS)


def load_contract() -> dict:
    """``BENCHMARK.json``: the names and units this run must emit."""
    with open(procs.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def say(text: str = "") -> None:
    print(text, flush=True)


def say_metric(name: str, unit: str, values, *, raw, middle=measure.median) -> float:
    """Print a metric as the middle of ``values`` with its quartiles and
    sample count, and the un-normalised middle beside it; returns it."""
    s = measure.summary(values)
    value = middle(values)
    say(f"  {name:<16} {value:.6g} {unit}   "
        f"[q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}]   "
        f"raw {middle(raw):.6g}")
    return value


# ----------------------------------------------------------------------
def timed_launch(workload) -> tuple[float, float]:
    """One fresh-process set-up: ``(when it began, raw seconds)``."""
    t0 = time.perf_counter()
    return t0, workload.launch()


def measure_end_to_end(workload, shape: Shape, sampler) -> dict:
    """The ``--trace 0`` run; returns the result document's fields."""
    phases = [time.perf_counter()]
    workload.build()
    phases.append(time.perf_counter())
    for _ in range(shape.discarded_launches):
        workload.launch()  # the first launch pays bytecode and page cache
    launches = [timed_launch(workload) for _ in range(shape.launches)]
    phases.append(time.perf_counter())

    attempted = failed = 0
    for _ in range(shape.warmups):
        rep = workload.repetition()
        rep.check()
        workload.between()
        attempted, failed = attempted + rep.attempted, failed + rep.failed
    phases.append(time.perf_counter())

    reps, entries = [], []
    while (
        len(reps) < shape.min_repetitions
        or time.perf_counter() - phases[1] < shape.seconds
    ):
        entries.append(workload.entries_at_start())
        rep = workload.repetition()
        rep.check()
        workload.between()
        reps.append(rep)
    phases.append(time.perf_counter())
    attempted += sum(r.attempted for r in reps)
    failed += sum(r.failed for r in reps)
    stationary = len({repr(e) for e in entries}) == 1
    timeline = sampler.timeline()
    for rep in reps:
        rep.scale(timeline)

    build_s, launch_s, warm_s, rep_s = (b - a for a, b in zip(phases, phases[1:]))
    say(f"  phases           fixture {build_s:.1f} s, "
        f"{shape.discarded_launches}+{shape.launches} launches "
        f"{launch_s:.1f} s, {shape.warmups} warm-ups {warm_s:.1f} s, "
        f"{len(reps)} repetitions of {reps[0].attempted} operations {rep_s:.1f} s "
        f"(shortest {min(r.wall_s for r in reps):.2f} s)")
    say(f"  store entries    {entries[0]} at the start of every repetition"
        if stationary else f"  store entries    NOT STATIONARY: {entries}")
    metrics = {
        "setup_s": say_metric(
            "setup_s", "s",
            [timeline.reference_s(t0, t0 + raw) for t0, raw in launches],
            raw=[raw for _, raw in launches],
        ),
        "cells_per_s": say_metric(
            "cells_per_s", "cells/s", measure.throughput(reps),
            raw=measure.throughput(reps, normalised=False),
        ),
        "cell_p50_ms": say_metric(
            "cell_p50_ms", "ms", measure.pooled_latencies_ms(reps),
            raw=measure.pooled_latencies_ms(reps, normalised=False),
            middle=measure.central,
        ),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    say(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:.6g} MB")
    say(f"  cpu per cell     "
        f"{measure.median(r.cpu_s / max(1, r.answered) for r in reps) * 1e3:.4g} ms")
    return {
        "correct": failed == 0 and stationary,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def measure_layers(workload, shape: Shape, sampler, scratch, all_cpus) -> dict:
    """The ``--trace 1`` run."""
    import layers
    import tracing

    workload.build()
    for traced in (False, True):  # warm both paths
        workload.repetition(traced=traced).check()
        workload.between()
    workload.recorders.clear()
    plain, spanned = [], []
    for pair in range(shape.trace_pairs):
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            rep = workload.repetition(traced=traced)
            rep.check()
            workload.between()
            (spanned if traced else plain).append(rep)
    both = plain + spanned
    timeline = sampler.timeline()
    for rep in both:
        rep.scale(timeline)
    overhead = 1.0 - measure.median(measure.throughput(spanned)) / measure.median(
        measure.throughput(plain)
    )

    path = procs.OUT / f"spans-{workload.name}-seed{workload.seed}.json"
    summary = tracing.write_span_file(
        path,
        workload.recorders,
        {"workload": workload.name, "seed": workload.seed},
    )
    say(f"  span file        {path.relative_to(procs.ROOT)}: {summary['n_spans']} "
        f"spans, {summary['n_cells']} cells, worst per-cell "
        f"|self-time sum - wall| = {summary['worst_cell_gap']:.2%}")
    for row in summary["self_time_by_name"][:8]:
        say(f"    self {row['self_s'] * 1e3:10.2f} ms  x{row['count']:<6} {row['name']}")
    workload.close()

    ledger = layers.run_ledger(scratch, sampler, quick=workload.quick, all_cpus=all_cpus)
    values = dict(ledger.values)
    values["bench.trace_overhead_frac"] = overhead
    values["host.raw_cells_per_s"] = measure.median(
        measure.throughput(plain, normalised=False)
    )
    values["host.cpu_ms_per_cell"] = measure.median(
        r.cpu_s / max(1, r.answered) * 1e3 for r in plain
    )
    for problem in ledger.problems:
        say(f"  LEDGER PROBLEM   {problem}")
    return {
        "correct": not ledger.problems
        and summary["worst_cell_gap"] <= 0.05
        and not any(r.failed for r in both),
        "attempted": sum(r.attempted for r in both),
        "failed": sum(r.failed for r in both),
        "metrics": values,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny inputs and two repetitions: checks plumbing, not speed",
    )
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.layers)

    procs.require_program()
    procs.exit_on_sigterm()
    all_cpus = procs.pin_to_one_cpu()
    contract = load_contract()
    sys.path.insert(0, str(procs.SRC))
    scratch = procs.scratch_dir()
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")

    from workloads import WORKLOADS  # needs ``repro`` on the path

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    shape = Shape.of(args.seconds, args.quick)
    sampler = procs.Sampler(scratch)
    workload = WORKLOADS[args.workload](args.seed, scratch, quick=args.quick)
    say(f"{workload.name} seed={args.seed} "
        f"{'per-layer (traced)' if traced else 'end-to-end'} run"
        f"{' [quick]' if args.quick else ''}; "
        f"sys.dont_write_bytecode={sys.dont_write_bytecode}")
    try:
        sampler.wait_until_sampling()
        if traced:
            result = measure_layers(workload, shape, sampler, scratch, all_cpus)
        else:
            result = measure_end_to_end(workload, shape, sampler)
        timeline = sampler.timeline()
    finally:
        workload.close()
        sampler.stop()
    steal = timeline.steal_share()
    calib_s = timeline.pass_s()
    say(f"  calibration      kernel pass {calib_s * 1e3:.2f} ms (median of "
        f"{len(timeline.starts)} slices x {calib.SLICES}; reference "
        f"{calib.REF_CALIB_S * 1e3:.2f} ms); steal {steal:.2%} of this CPU")
    for failure in workload.failures:
        say(f"  FAILED           {failure}")
    if not args.quick and workload.digest is not None:
        say("  " + guards.golden_note(workload.digest_name, workload.digest))

    section = "per_layer" if traced else "end_to_end"
    if traced:
        result["metrics"]["host.calib_s"] = calib_s
        result["metrics"]["host.steal_frac"] = steal
    units = {m["name"]: m["unit"] for m in contract[section]}
    if set(units) != set(result["metrics"]):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        sys.exit(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    if traced:
        for name in sorted(units):
            say(f"  {name:<44} {result['metrics'][name]:.6g} {units[name]}")
    result["metrics"] = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
