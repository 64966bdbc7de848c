"""HTTP API surface: routes requests onto the serving core.

Endpoints (all JSON unless noted)::

    GET  /healthz             liveness + engine/store inventory
    GET  /metrics             Prometheus text exposition (server +
                              serving-core metrics)
    GET  /v1/store/stats      ResultStore counters + serving caches
    POST /v1/solve            one (config, scheme) cell through the
                              cache tiers; body = ExperimentConfig
                              fields + "scheme"; engine defaults to
                              the analytic model
    POST /v1/project          Section-6 weak-scaling projection;
                              body = {"sizes": [...], "schemes": [...]}
    GET  /v1/reports          index of stored cells
    GET  /v1/reports/{key}    one stored payload (full SolveReport)
    GET  /v1/reports/diff?a=KEY&b=KEY   structural run diff

Solve responses carry cache provenance (``"cache": "lru" | "store" |
"coalesced" | "computed"``) next to the report so clients — and the CI
smoke job — can assert reuse.  Report JSON is the store's own payload
schema (:func:`repro.campaign.serialize.report_to_dict`), so numbers
are bit-identical to a direct engine call.

Observability endpoints (tentpole)::

    GET  /metrics/history?window=S   sampled metrics ring buffer (JSON)
    GET  /slo                        SLO burn-rate status

Every request is stamped with a request id — an inbound
``X-Repro-Request-Id`` is honored, otherwise one is minted — which
flows through the handler task (and therefore through coalescing and
group batching) into structured log lines and, for traced solves, the
stored telemetry's root span; the response echoes it back in the same
header.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import replace as _dc_replace

from repro.campaign.serialize import report_to_dict
from repro.campaign.spec import BASELINE_SCHEME, CampaignCell
from repro.core.backends import DEFAULT_BACKEND
from repro.core.recovery import scheme_names
from repro.engines import engine_names
from repro.harness.experiment import ExperimentConfig
from repro.obs.analysis.render import prometheus_text
from repro.obs.history import MetricsHistory
from repro.obs.logging import (
    REQUEST_ID_HEADER,
    bound_request_id,
    get_logger,
    new_request_id,
    valid_request_id,
)
from repro.obs.slo import DEFAULT_SLOS, Slo, evaluate_slos
from repro.serve.core import ServingCore
from repro.serve.http import HttpRequest, HttpResponse

_log = get_logger("serve.app")

#: Engine the solve endpoint uses when the request names none: the
#: closed-form model — the 145x-cheaper path an interactive tier wants.
DEFAULT_SERVE_ENGINE = "analytic"

#: Accepted spelling for the analytic engine in requests ("the model").
ENGINE_ALIASES = {"model": "analytic"}

#: ExperimentConfig fields a solve request may set, with the JSON types
#: each accepts.  Checked before construction: ExperimentConfig itself
#: validates values, not types, and a str nranks would only explode deep
#: inside a solve.
_CONFIG_FIELDS: dict[str, tuple[type, ...]] = {
    "matrix": (str,),
    "nranks": (int,),
    "n_faults": (int,),
    "tol": (int, float),
    "seed": (int,),
    "scale": (int, float),
    "cr_interval": (str, int),
    "construct_tol": (int, float),
    "max_iters": (int,),
    "engine": (str,),
    "fault_scope": (str,),
    "trace": (bool,),
    "backend": (str,),
    "victims_per_fault": (int,),
    "preconditioner": (str, type(None)),
}


class RequestError(ValueError):
    """A well-formed HTTP request asking for something invalid (400)."""


def parse_solve_request(
    payload: dict, *, default_backend: str = DEFAULT_BACKEND
) -> CampaignCell:
    """Validate a /v1/solve body into a campaign cell."""
    if not isinstance(payload, dict):
        raise RequestError("body must be a JSON object")
    payload = dict(payload)
    payload.setdefault("backend", default_backend)
    scheme = payload.pop("scheme", BASELINE_SCHEME)
    known = set(scheme_names()) | {BASELINE_SCHEME}
    if scheme not in known:
        raise RequestError(
            f"unknown scheme {scheme!r}; known: {', '.join(sorted(known))}"
        )
    unknown = set(payload) - set(_CONFIG_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown fields: {', '.join(sorted(unknown))}; "
            f"accepted: scheme, {', '.join(sorted(_CONFIG_FIELDS))}"
        )
    for name, value in payload.items():
        accepted = _CONFIG_FIELDS[name]
        # bools are ints in python; reject them except where bool is the
        # accepted type, so {"nranks": true} still fails loudly
        if bool in accepted:
            ok = isinstance(value, bool)
        else:
            ok = not isinstance(value, bool) and isinstance(value, accepted)
        if not ok:
            raise RequestError(
                f"field {name!r} must be "
                f"{' or '.join(t.__name__ for t in accepted)}, "
                f"got {type(value).__name__}"
            )
    engine = payload.get("engine", DEFAULT_SERVE_ENGINE)
    payload["engine"] = ENGINE_ALIASES.get(engine, engine)
    if payload["engine"] not in engine_names():
        raise RequestError(
            f"unknown engine {engine!r}; known: "
            f"{', '.join(engine_names())} (alias: model)"
        )
    try:
        config = ExperimentConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from None
    return CampaignCell(config=config, scheme=scheme)


def _finite(x: float) -> float | None:
    """Strict-JSON stand-in: the projection's halt state (inf) -> None."""
    return None if (math.isinf(x) or math.isnan(x)) else x


class ServeApp:
    """Route table over one :class:`ServingCore` (+ optional store)."""

    def __init__(
        self,
        core: ServingCore,
        *,
        history: MetricsHistory | None = None,
        slos: tuple[Slo, ...] = DEFAULT_SLOS,
        default_backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.core = core
        self.default_backend = default_backend
        self.started_at = time.time()
        #: Sampled metrics ring buffer behind /metrics/history; the
        #: sampler task starts lazily on the first served request so the
        #: app binds to whichever event loop actually runs it.
        self.history = history if history is not None else MetricsHistory()
        self.slos = slos
        self._sampler_task: asyncio.Task | None = None

    # -- metrics sampling ----------------------------------------------
    def _ensure_sampler(self) -> None:
        if self._sampler_task is not None and not self._sampler_task.done():
            return
        self.history.sample(self.core.metrics)
        self._sampler_task = asyncio.get_running_loop().create_task(
            self._sampler_loop(), name="repro-serve-sampler"
        )

    async def _sampler_loop(self) -> None:
        while True:
            await asyncio.sleep(self.history.interval_s)
            self.history.sample(self.core.metrics)

    # -- dispatch ------------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        """The ``ServeServer`` app callback."""
        t0 = time.perf_counter()
        self._ensure_sampler()
        request_id = (
            valid_request_id(request.headers.get(REQUEST_ID_HEADER.lower()))
            or new_request_id()
        )
        endpoint, handler = self._route(request)
        with bound_request_id(request_id):
            try:
                if handler is None:
                    response = HttpResponse.error(
                        404, f"no route for {request.method} {request.path}"
                    )
                else:
                    response = await handler(request)
            except RequestError as exc:
                response = HttpResponse.error(400, str(exc))
            except ValueError as exc:
                # bad JSON bodies and engine/scheme validation both land here
                response = HttpResponse.error(400, str(exc))
            except Exception as exc:  # answer 500 in-app so the failure
                # still lands in serve_requests{status=5xx} and the logs
                response = HttpResponse.error(
                    500, f"{type(exc).__name__}: {exc}"
                )
            elapsed = time.perf_counter() - t0
            level = "info" if response.status < 500 else "error"
            _log.log(
                level,
                "request",
                method=request.method,
                path=request.path,
                endpoint=endpoint,
                status=response.status,
                elapsed_ms=round(elapsed * 1e3, 3),
            )
        metrics = self.core.metrics
        metrics.counter(
            "serve_requests",
            endpoint=endpoint,
            status=str(response.status),
        ).inc()
        hist_kwargs = (
            {"buckets": self.core.latency_buckets}
            if self.core.latency_buckets
            else {}
        )
        metrics.histogram(
            "serve_request_latency_s", endpoint=endpoint, **hist_kwargs
        ).observe(elapsed)
        return _dc_replace(
            response,
            headers={**response.headers, REQUEST_ID_HEADER: request_id},
        )

    __call__ = handle

    def _route(self, request: HttpRequest):
        """(endpoint label, handler) for one request; label is the
        metrics axis, so path parameters collapse onto one series."""
        path, method = request.path.rstrip("/") or "/", request.method
        table = {
            ("GET", "/healthz"): ("/healthz", self.healthz),
            ("GET", "/metrics"): ("/metrics", self.metrics),
            ("GET", "/metrics/history"): ("/metrics/history", self.metrics_history),
            ("GET", "/slo"): ("/slo", self.slo_status),
            ("GET", "/v1/store/stats"): ("/v1/store/stats", self.store_stats),
            ("POST", "/v1/solve"): ("/v1/solve", self.solve),
            ("POST", "/v1/project"): ("/v1/project", self.project),
            ("GET", "/v1/reports"): ("/v1/reports", self.reports_index),
            ("GET", "/v1/reports/diff"): ("/v1/reports/diff", self.reports_diff),
        }
        if (method, path) in table:
            return table[(method, path)]
        if method == "GET" and path.startswith("/v1/reports/"):
            return "/v1/reports/{key}", self.report_by_key
        return request.path, None

    # -- handlers ------------------------------------------------------
    async def healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            {
                "status": "ok",
                "engines": engine_names(),
                "store": self.core.store is not None,
                "uptime_s": round(time.time() - self.started_at, 3),
            }
        )

    async def metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.text(prometheus_text(self.core.metrics))

    async def metrics_history(self, request: HttpRequest) -> HttpResponse:
        window_s = None
        raw = request.query.get("window")
        if raw is not None:
            try:
                window_s = float(raw)
            except ValueError:
                raise RequestError(f"bad window {raw!r}") from None
            if window_s <= 0:
                raise RequestError("window must be > 0 seconds")
        return HttpResponse.json(self.history.to_doc(window_s))

    async def slo_status(self, request: HttpRequest) -> HttpResponse:
        statuses = evaluate_slos(self.history, self.slos)
        return HttpResponse.json(
            {
                "firing": any(s.firing for s in statuses),
                "slos": [s.to_dict() for s in statuses],
            }
        )

    async def store_stats(self, request: HttpRequest) -> HttpResponse:
        store = self.core.store
        stats = {"store": None if store is None else store.stats()}
        stats["serving"] = self.core.cache_stats()
        return HttpResponse.json(stats)

    async def solve(self, request: HttpRequest) -> HttpResponse:
        cell = parse_solve_request(
            request.json(), default_backend=self.default_backend
        )
        outcome = await self.core.solve_cell(cell)
        return HttpResponse.json(
            {
                "key": outcome.key,
                "label": cell.label,
                "cache": outcome.source,
                "elapsed_s": outcome.elapsed_s,
                "report": report_to_dict(outcome.report),
            }
        )

    async def project(self, request: HttpRequest) -> HttpResponse:
        from repro.core.models.projection import FIGURE9_SCHEMES, project

        payload = request.json()
        if not isinstance(payload, dict):
            raise RequestError("body must be a JSON object")
        unknown = set(payload) - {"sizes", "schemes"}
        if unknown:
            raise RequestError(f"unknown fields: {', '.join(sorted(unknown))}")
        sizes = payload.get("sizes")
        if not isinstance(sizes, list) or not sizes or not all(
            isinstance(n, int) and n >= 1 for n in sizes
        ):
            raise RequestError("'sizes' must be a non-empty list of ints >= 1")
        schemes = payload.get("schemes", list(FIGURE9_SCHEMES))
        unknown = set(schemes) - set(FIGURE9_SCHEMES)
        if unknown:
            raise RequestError(
                f"unknown projection schemes: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(FIGURE9_SCHEMES)}"
            )
        data = project(sorted(sizes), schemes=tuple(schemes))
        return HttpResponse.json(
            {
                "sizes": sorted(sizes),
                "points": {
                    scheme: [
                        {
                            "n": p.n,
                            "system_mtbf_s": _finite(p.system_mtbf_s),
                            "t_res_ratio": _finite(p.t_res_ratio),
                            "e_res_ratio": _finite(p.e_res_ratio),
                            "power_ratio": _finite(p.power_ratio),
                            "halted": p.halted,
                        }
                        for p in points
                    ]
                    for scheme, points in data.items()
                },
            }
        )

    def _require_store(self):
        if self.core.store is None:
            raise RequestError("this server runs without a result store")
        return self.core.store

    async def reports_index(self, request: HttpRequest) -> HttpResponse:
        store = self._require_store()
        rows = [
            {
                "key": entry.key,
                "label": entry.cell.label,
                "scheme": entry.cell.scheme,
                "matrix": entry.cell.config.matrix,
                "engine": entry.cell.config.engine,
                "converged": entry.report.converged,
                "iterations": entry.report.iterations,
                "time_s": entry.report.time_s,
                "energy_j": entry.report.energy_j,
            }
            for entry in store.entries()
        ]
        return HttpResponse.json({"entries": rows, "count": len(rows)})

    async def report_by_key(self, request: HttpRequest) -> HttpResponse:
        store = self._require_store()
        key = request.path.rstrip("/").rsplit("/", 1)[-1]
        entry = store.entry_by_key(key)
        if entry is None:
            return HttpResponse.error(404, f"no stored cell with key {key!r}")
        return HttpResponse.json(
            {
                "key": entry.key,
                "label": entry.cell.label,
                "elapsed_s": entry.elapsed_s,
                "created_at": entry.created_at,
                "report": report_to_dict(entry.report),
            }
        )

    async def reports_diff(self, request: HttpRequest) -> HttpResponse:
        from repro.obs.analysis.diffing import diff_runs
        from repro.obs.analysis.records import RunRecord
        from repro.obs.analysis.render import format_run_diff

        store = self._require_store()
        want_a, want_b = request.query.get("a"), request.query.get("b")
        if not want_a or not want_b:
            raise RequestError("need query params a=KEY and b=KEY")
        records = []
        for key in (want_a, want_b):
            entry = store.entry_by_key(key)
            if entry is None:
                return HttpResponse.error(404, f"no stored cell with key {key!r}")
            records.append(
                RunRecord(
                    label=entry.cell.label,
                    report=entry.report,
                    telemetry=entry.report.details.get("telemetry"),
                    config=entry.cell.config,
                )
            )
        diff = diff_runs(records[0], records[1])
        return HttpResponse.json(
            {
                "a": {"key": want_a, "label": records[0].label},
                "b": {"key": want_b, "label": records[1].label},
                "identical": diff.identical,
                "n_changes": diff.n_changes,
                "text": format_run_diff(diff),
            }
        )

    # -- lifecycle -----------------------------------------------------
    def lifetime_summary(self) -> dict:
        """Lifetime counters for the final shutdown log line."""
        from repro.obs.metrics import MetricsRegistry

        snap = self.core.metrics.snapshot()
        requests_total = 0.0
        errors_5xx = 0.0
        solves: dict[str, int] = {}
        for series, value in snap.get("counters", {}).items():
            name, labels = MetricsRegistry._parse_series(series)
            if name == "serve_requests":
                requests_total += value
                if labels.get("status", "").startswith("5"):
                    errors_5xx += value
            elif name == "serve_solve":
                source = labels.get("source", "")
                solves[source] = solves.get(source, 0) + int(value)
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": int(requests_total),
            "errors_5xx": int(errors_5xx),
            "solves_by_source": dict(sorted(solves.items())),
            "history_samples": len(self.history),
        }
