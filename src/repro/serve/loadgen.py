"""Threaded load generator: req/s and latency percentiles.

Drives any request function against a running server from N worker
threads (each with its own keep-alive :class:`ServeClient`) and folds
every request's wall latency into a :class:`LoadReport`.  This is what
the CI serving-smoke job's load burst runs against the live server; it
is deliberately simple — closed-loop workers, no ramp-up — because its
job is a smoke reading, not a capacity plan.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import ServeClient


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted data (q in [0, 1]).

    Textbook nearest rank: ``ceil(q * n)``, 1-indexed, so q=0 resolves
    to the minimum and q=1 to the maximum.  ``ceil`` (not ``round``)
    matters for tiny n — banker's rounding made p90 of 4 samples
    resolve below p50's neighbour.
    """
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class LoadReport:
    """Outcome of one load run."""

    n_requests: int
    concurrency: int
    duration_s: float
    latencies_s: list[float] = field(repr=False, default_factory=list)
    errors: int = 0
    #: Request id of the slowest request (as echoed by the server), the
    #: handle to pull its logs and span tree; None without a server id.
    worst_request_id: str | None = None

    @property
    def req_per_s(self) -> float:
        return self.n_requests / self.duration_s if self.duration_s > 0 else 0.0

    def latency_s(self, q: float) -> float:
        return percentile(sorted(self.latencies_s), q)

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "req_per_s": self.req_per_s,
            "p50_ms": self.latency_s(0.50) * 1e3,
            "p90_ms": self.latency_s(0.90) * 1e3,
            "p99_ms": self.latency_s(0.99) * 1e3,
            "max_ms": max(self.latencies_s) * 1e3,
            "errors": self.errors,
            "worst_request_id": self.worst_request_id,
        }

    def summary(self) -> str:
        d = self.to_dict()
        worst = f" (worst: {d['worst_request_id']})" if d["worst_request_id"] else ""
        return (
            f"{d['n_requests']} requests, {d['concurrency']} workers, "
            f"{d['duration_s']:.2f}s: {d['req_per_s']:.0f} req/s, "
            f"p50 {d['p50_ms']:.2f}ms, p90 {d['p90_ms']:.2f}ms, "
            f"p99 {d['p99_ms']:.2f}ms, max {d['max_ms']:.2f}ms, "
            f"{d['errors']} errors{worst}"
        )


def run_load(
    host: str,
    port: int,
    request_fn,
    *,
    n_requests: int = 200,
    concurrency: int = 4,
    timeout: float = 60.0,
) -> LoadReport:
    """Fire ``n_requests`` total from ``concurrency`` closed-loop workers.

    ``request_fn(client, i)`` issues request ``i`` on a worker's own
    client; exceptions count as errors (their wall time still counts,
    so a timing-out server cannot flatter its percentiles).
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    latencies: list[float] = []
    errors = [0]
    worst: list = [0.0, None]  # [latency, request id]
    lock = threading.Lock()
    counter = iter(range(n_requests))

    def worker() -> None:
        with ServeClient(host, port, timeout=timeout) as client:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                try:
                    request_fn(client, i)
                    failed = False
                except Exception:
                    failed = True
                elapsed = time.perf_counter() - t0
                with lock:
                    latencies.append(elapsed)
                    if failed:
                        errors[0] += 1
                    if elapsed >= worst[0]:
                        worst[0] = elapsed
                        worst[1] = client.last_request_id

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{w}")
        for w in range(min(concurrency, n_requests))
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0
    return LoadReport(
        n_requests=n_requests,
        concurrency=len(threads),
        duration_s=duration,
        latencies_s=latencies,
        errors=errors[0],
        worst_request_id=worst[1],
    )
