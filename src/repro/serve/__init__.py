"""Campaign-as-a-service: the async serving tier (DESIGN.md §5h).

``repro.serve`` puts an HTTP query surface in front of the machinery the
batch CLI drives — the engine table, the content-addressed
:class:`~repro.campaign.store.ResultStore` and the Section-6 projection
models — so scheme/interval/scale questions are answered interactively
instead of via offline sweeps:

* :mod:`~repro.serve.core` — :class:`ServingCore`, the socket-free
  serving brain: LRU hot-cache over store lookups, request coalescing
  of identical in-flight cells, and group batching of the cells that
  share a config onto one experiment in a bounded worker pool;
* :mod:`~repro.serve.app` — the route table mapping HTTP endpoints
  (``/v1/solve``, ``/v1/project``, ``/v1/reports``, ``/v1/store/stats``,
  ``/healthz``, ``/metrics``) onto the core;
* :mod:`~repro.serve.http` — a minimal asyncio HTTP/1.1 server
  (stdlib only, no web framework);
* :mod:`~repro.serve.client` — a small blocking client used by tests,
  CI and the load generator;
* :mod:`~repro.serve.loadgen` — a threaded load generator measuring
  req/s and p50/p99 latency for the serving benchmark.

Live observability (DESIGN.md §5i): every request carries an
``X-Repro-Request-Id`` through coalescing/batching into logs and the
stored telemetry.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "app": ("ServeApp",),
    "client": ("ServeClient", "ServeError"),
    "core": ("ServingCore", "SolveOutcome"),
    "http": ("BackgroundServer", "HttpRequest", "HttpResponse", "ServeServer"),
    "loadgen": ("LoadReport", "run_load"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
