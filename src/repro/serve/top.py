"""``repro top``: a live terminal dashboard over the serving tier.

Pure stdlib: one keep-alive :class:`~repro.serve.client.ServeClient`
polls ``/healthz``, ``/metrics/history`` and ``/slo``; everything on
screen is *derived from the sampled history* — request and error rates
from counter deltas, latency percentiles from histogram-bucket deltas,
batch sizes from the batch histogram — so the dashboard shows the same
numbers ``repro doctor --history`` would compute from the saved
artifact.  The live loop is :func:`repro.obs.term.repaint` in the
foreground; ``--once`` prints a single un-escaped snapshot, which is
what CI captures as the dashboard artifact.
"""

from __future__ import annotations

import sys
import threading

from repro.obs.history import (
    MetricsHistory,
    counter_delta,
    histogram_delta,
    percentile_from_buckets,
)
from repro.obs.term import fmt_ms, repaint
from repro.serve.client import ServeClient

#: Default repaint interval, seconds.
DEFAULT_REFRESH_S = 2.0

#: Default trailing window the rates/percentiles are computed over.
DEFAULT_WINDOW_S = 60.0


def _series_name(series: str) -> str:
    return series.partition("{")[0]


def _source_counts(snapshot: dict) -> dict[str, int]:
    """serve_solve totals by cache tier, from one metrics snapshot."""
    from repro.obs.metrics import MetricsRegistry

    out: dict[str, int] = {}
    for series, value in snapshot.get("counters", {}).items():
        name, labels = MetricsRegistry._parse_series(series)
        if name == "serve_solve":
            source = labels.get("source", "")
            out[source] = out.get(source, 0) + int(value)
    return out


def render(
    health: dict,
    history: MetricsHistory,
    slo_doc: dict,
    *,
    window_s: float = DEFAULT_WINDOW_S,
) -> str:
    """One dashboard frame as plain text (no escape codes)."""
    lines: list[str] = []
    uptime = health.get("uptime_s", 0.0)
    lines.append(
        f"repro top — server up {uptime:.0f}s, engines: "
        f"{', '.join(health.get('engines', []))}, "
        f"store: {'yes' if health.get('store') else 'no'} "
        f"— window {window_s:g}s, {len(history)} samples"
    )
    lines.append("")

    # traffic: rates from counter deltas over the window
    requests, dt = counter_delta(
        history, lambda s: _series_name(s) == "serve_requests", window_s
    )
    errors, _ = counter_delta(
        history,
        lambda s: _series_name(s) == "serve_requests" and "status=5" in s,
        window_s,
    )
    rate = requests / dt if dt > 0 else 0.0
    err_pct = 100.0 * errors / requests if requests > 0 else 0.0
    lines.append(
        f"  traffic   {rate:8.1f} req/s   {int(requests):6d} reqs "
        f"  {err_pct:5.2f}% 5xx"
    )

    # latency percentiles from request-histogram bucket deltas
    delta = histogram_delta(
        history, lambda s: _series_name(s) == "serve_request_latency_s", window_s
    )
    if delta is not None and delta["n"] > 0:
        p50 = percentile_from_buckets(delta["buckets"], delta["counts"], 0.50)
        p90 = percentile_from_buckets(delta["buckets"], delta["counts"], 0.90)
        p99 = percentile_from_buckets(delta["buckets"], delta["counts"], 0.99)
        lines.append(
            f"  latency   p50 ≤{fmt_ms(p50)}ms   p90 ≤{fmt_ms(p90)}ms "
            f"  p99 ≤{fmt_ms(p99)}ms   ({delta['n']} obs)"
        )
    else:
        lines.append("  latency   (no observations in window)")

    # cache tiers: lifetime solve totals by source + live gauges
    latest = history.latest()
    snapshot = latest.metrics if latest is not None else {}
    sources = _source_counts(snapshot)
    total = sum(sources.values())
    served_cached = sum(
        sources.get(s, 0) for s in ("lru", "coalesced", "store")
    )
    hit_pct = 100.0 * served_cached / total if total > 0 else 0.0
    parts = "  ".join(
        f"{name}={sources.get(name, 0)}"
        for name in ("lru", "coalesced", "store", "computed")
    )
    lines.append(f"  cache     {hit_pct:5.1f}% hit   {parts}")

    gauges = snapshot.get("gauges", {})
    batch = histogram_delta(
        history, lambda s: _series_name(s) == "serve_batch_size", window_s
    )
    batch_mean = (
        batch["total"] / batch["n"] if batch is not None and batch["n"] else 0.0
    )
    lines.append(
        f"  core      inflight={int(gauges.get('serve_inflight', 0))} "
        f"  lru_entries={int(gauges.get('serve_lru_entries', 0))} "
        f"  batch_mean={batch_mean:.2f}"
    )
    lines.append("")

    # SLO burn
    firing_any = bool(slo_doc.get("firing"))
    lines.append(f"  SLO burn  {'FIRING' if firing_any else 'ok'}")
    for status in slo_doc.get("slos", []):
        for speed in ("fast", "slow"):
            win = status.get(speed, {})
            mark = "!!" if win.get("firing") else "  "
            lines.append(
                f"   {mark} {status.get('name', '?'):<13}"
                f"{speed:<5} {win.get('window_s', 0):5.0f}s  "
                f"burn {win.get('burn_rate', 0.0):7.2f}x "
                f"(alert ≥{win.get('threshold', 0.0):g}x, "
                f"{win.get('requests', 0)} reqs)"
            )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = DEFAULT_REFRESH_S,
    window_s: float = DEFAULT_WINDOW_S,
    once: bool = False,
    out=None,
) -> int:
    """Drive the dashboard; returns a process exit code.

    ``once`` prints a single plain frame (CI snapshot mode); the live
    loop runs in the foreground until interrupted.
    """
    stream = sys.stdout if out is None else out
    with ServeClient(host, port) as client:
        def frame() -> str:
            health = client.health()
            history = MetricsHistory.from_doc(client.metrics_history())
            return render(health, history, client.slo(), window_s=window_s)

        if once:
            print(frame(), file=stream)
            return 0
        try:
            repaint(frame, interval_s, threading.Event(), stream)
        except KeyboardInterrupt:
            pass
    return 0
