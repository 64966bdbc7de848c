"""Serving-tier benchmark: req/s and p50/p99 latency.

Stands a real ``repro.serve`` server up in-process (ephemeral port,
temp store) and measures three request classes with the threaded load
generator::

    healthz     GET /healthz — the HTTP routing floor
    solve_hot   one analytic cell requested repeatedly — the LRU-hit
                path the "many users, same question" workload exercises
    solve_mix   a cycle over distinct cells (different seeds) — first
                pass computes on the worker pool, later passes hit the
                LRU

Results are recorded to ``BENCH_serving.json`` next to
``BENCH_perf.json``: raw req/s and millisecond percentiles per phase
plus the server's own cache counters, so the serving trajectory is
committed alongside the solver perf trajectory.  Unlike the solver
suite there is no normalized-score gate — wall-latency on shared CI
runners is too noisy to gate on — but the CI smoke job publishes the
document as an artifact on every run.

Run it::

    PYTHONPATH=src:. python -m benchmarks.perf.serving \
        --requests 400 --concurrency 4 --output BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

SCHEMA_VERSION = 1

#: The benchmark cell: small enough to solve in milliseconds, real
#: enough to exercise the full engine + store + serialization path.
BASE_REQUEST = {
    "matrix": "wathen100",
    "nranks": 8,
    "n_faults": 2,
    "scale": 0.25,
    "engine": "analytic",
}

#: Schemes cycled by the mixed phase (with varying seeds).
MIX_SCHEMES = ("RD", "F0", "LI", "CR-D")
MIX_SEEDS = (0, 1)


def run_serving_bench(
    n_requests: int = 400, concurrency: int = 4, workers: int = 2
) -> dict:
    """Measure one server; returns the JSON-ready results document."""
    from repro.campaign.store import ResultStore
    from repro.serve import BackgroundServer, ServeApp, ServeClient, ServingCore
    from repro.serve.loadgen import run_load

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        store = ResultStore(tmp)
        core = ServingCore(store, workers=workers)
        app = ServeApp(core)
        phases: dict[str, dict] = {}
        with BackgroundServer(app.handle) as server:
            with ServeClient(server.host, server.port) as warm:
                warm.solve(**BASE_REQUEST, scheme="RD")

            phases["healthz"] = run_load(
                server.host,
                server.port,
                lambda client, i: client.health(),
                n_requests=n_requests,
                concurrency=concurrency,
            ).to_dict()

            phases["solve_hot"] = run_load(
                server.host,
                server.port,
                lambda client, i: client.solve(**BASE_REQUEST, scheme="RD"),
                n_requests=n_requests,
                concurrency=concurrency,
            ).to_dict()

            mix = [
                dict(BASE_REQUEST, scheme=scheme, seed=seed)
                for seed in MIX_SEEDS
                for scheme in MIX_SCHEMES
            ]
            phases["solve_mix"] = run_load(
                server.host,
                server.port,
                lambda client, i: client.solve(**mix[i % len(mix)]),
                n_requests=n_requests,
                concurrency=concurrency,
            ).to_dict()

            cache = core.cache_stats()
            store_stats = store.stats()
        core.close()
        store.close()

    solved = cache["solved_by_source"]
    if not solved.get("lru"):
        raise RuntimeError(
            f"hot phase never hit the LRU: {solved}; the serving cache is broken"
        )
    total_errors = sum(p["errors"] for p in phases.values())
    if total_errors:
        raise RuntimeError(f"{total_errors} failed requests during the benchmark")
    store_stats.pop("root", None)  # temp path: meaningless in a committed doc
    return {
        "schema": SCHEMA_VERSION,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "workers": workers,
        "phases": phases,
        "cache": cache,
        "store": store_stats,
    }


def format_results(doc: dict) -> str:
    lines = [
        f"serving benchmark ({doc['n_requests']} requests/phase, "
        f"{doc['concurrency']} client threads, {doc['workers']} server workers)",
        f"{'phase':<12} {'req/s':>8} {'p50_ms':>8} {'p90_ms':>8} {'p99_ms':>8} {'max_ms':>8}",
    ]
    for name, p in doc["phases"].items():
        lines.append(
            f"{name:<12} {p['req_per_s']:>8.0f} {p['p50_ms']:>8.2f} "
            f"{p['p90_ms']:>8.2f} {p['p99_ms']:>8.2f} {p['max_ms']:>8.2f}"
        )
    solved = doc["cache"]["solved_by_source"]
    lines.append(
        "cache: "
        + ", ".join(f"{k}={v}" for k, v in sorted(solved.items()))
        + f" (lru {doc['cache']['lru_entries']}/{doc['cache']['lru_capacity']})"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.serving", description=__doc__
    )
    parser.add_argument(
        "--requests", type=int, default=400,
        help="requests per phase (default 400)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=4,
        help="client threads (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="server worker threads (default 2)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the results document as JSON",
    )
    args = parser.parse_args(argv)
    doc = run_serving_bench(
        n_requests=args.requests,
        concurrency=args.concurrency,
        workers=args.workers,
    )
    print(format_results(doc))
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
