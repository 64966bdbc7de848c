"""A/A check: does the benchmark agree with itself on this machine?

    python3 benchmarks/e2e/selfcheck.py                 # two sets
    python3 benchmarks/e2e/selfcheck.py --sets 6 --evidence benchmarks/e2e/AA_EVIDENCE.json

A *set* is every workload once, each in a fresh ``run.py`` process, of
the same code with the same seed.  For every (metric, workload) pairing
the script prints the worst disagreement between any two sets —
``|a - b| / min(a, b)`` — against the metric's bound from
``BENCHMARK.json``, and exits non-zero if any pairing breaches its bound
or any run reports a failed operation.

The bound a timing metric may carry follows from the same figure: 0.10
while no workload's worst disagreement is above 0.05, 0.15 while none is
above 0.10.  Anything above 0.10 is a breach whatever the committed
bound says — it means more repetitions or a stationarity bug, not a
wider bound — and so is a committed bound tighter than the one the
readings imply.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time

import procs
from measure import disagreement, median, spread

#: The metrics whose bound the rule above decides; ``peak_rss_mb`` keeps
#: its own.
TIMING = ("setup_s", "cells_per_s", "cell_p50_ms")
SEED = 0


def implied_bound(worst: float) -> float | None:
    """The bound a timing pairing with that worst disagreement takes;
    ``None`` when it is too unsteady to carry one."""
    if worst <= 0.05:
        return 0.10
    return 0.15 if worst <= 0.10 else None


def run_once(workload: str, seconds: int) -> dict:
    argv = [
        sys.executable, str(procs.HERE / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def judge(workload: str, metric: str, values: list[float], bound: float) -> dict:
    worst = max(disagreement(a, b) for a, b in itertools.combinations(values, 2))
    implied = implied_bound(worst) if metric in TIMING else bound
    if implied is None:
        verdict = "BREACH: above 0.10"
    elif worst > bound:
        verdict = "BREACH"
    elif implied > bound:
        verdict = f"BREACH: bound must be {implied:.2f}"
    else:
        verdict = "ok"
    return {
        "workload": workload,
        "metric": metric,
        "values": values,
        "median": median(values),
        "worst_pair_disagreement": worst,
        "iqr_over_median": spread(values),
        "bound": bound,
        "implied_bound": implied,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--evidence", help="write every reading and verdict here")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")

    procs.require_program()
    with open(procs.ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    readings: dict[str, dict[str, list[float]]] = {
        w: {m: [] for m in bounds} for w in workloads
    }
    wrong: list[str] = []
    walls: list[float] = []
    for i in range(args.sets):
        for workload in workloads:
            result = run_once(workload, contract["run_seconds"])
            walls.append(result["wall_s"])
            if not result["correct"] or result["failed"]:
                wrong.append(f"set {i} {workload}: {result['failed']} failed operations")
            for metric in bounds:
                readings[workload][metric].append(result["metrics"][metric]["value"])
            print(f"set {i} {workload:<14} "
                  + "  ".join(f"{m}={readings[workload][m][-1]:.5g}" for m in bounds)
                  + f"  ({result['wall_s']:.0f} s)", flush=True)

    print(f"\n{'pairing':<30} {'median':>10} {'worst pair':>11} {'IQR/median':>11} {'bound':>6}")
    pairings = [
        judge(workload, metric, readings[workload][metric], bounds[metric])
        for workload, metric in itertools.product(workloads, bounds)
    ]
    for p in pairings:
        print(f"{p['workload'] + ' ' + p['metric']:<30} {p['median']:>10.5g} "
              f"{p['worst_pair_disagreement']:>11.2%} {p['iqr_over_median']:>11.2%} "
              f"{p['bound']:>6.0%}  {p['verdict']}")
    breaches = [p for p in pairings if p["verdict"] != "ok"]
    print(f"\n{args.sets} sets ({len(walls)} runs, {sum(walls):.0f} s, longest run "
          f"{max(walls):.0f} s): {len(breaches)} of {len(pairings)} pairings breach "
          f"their bound; {len(wrong)} runs with failed operations")
    for line in wrong:
        print("  " + line)
    if args.evidence:
        with open(args.evidence, "w") as f:
            json.dump(
                {
                    "sets": args.sets,
                    "pairs_per_pairing": args.sets * (args.sets - 1) // 2,
                    "seed": SEED,
                    "run_seconds": contract["run_seconds"],
                    "run_wall_s": {"total": sum(walls), "longest": max(walls)},
                    "runs_with_failed_operations": wrong,
                    "pairings": pairings,
                },
                f,
                indent=1,
            )
            f.write("\n")
    return 1 if breaches or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
