"""``repro campaign --watch``: a live terminal dashboard over the fleet.

Renders a live :meth:`~repro.campaign.fleet.FleetMonitor.manifest`,
the monitor's ETA and its busy workers as a plain-text frame with no
escape codes inside it, repainted in place with one clear-and-home
sequence in live mode.  ``--once`` prints the
final frame un-escaped to stdout — the CI-greppable snapshot artifact.

The repaint loop (:func:`repro.obs.term.repaint`) runs in a daemon
thread beside the campaign's main thread (which is busy driving the
worker pool), reading the monitor's thread-safe manifests; it owns no
state of its own, so a campaign without ``--watch`` pays nothing.
"""

from __future__ import annotations

import sys
import threading

from repro.campaign.fleet import FleetMonitor
from repro.obs.term import fmt_age, fmt_bytes, hms, repaint

#: Default repaint interval, seconds.
DEFAULT_REFRESH_S = 1.0


def render_fleet(manifest, eta_s: float | None, busy: dict) -> str:
    """One dashboard frame as plain text (no escape codes): a live
    :class:`~repro.campaign.manifest.RunManifest`, the monitor's ETA and
    its busy map (``{pid: (cell, started_ts)}``).  A cell's age runs to
    the manifest's ``finished_at``, the moment a live manifest is taken."""
    c = manifest.counters
    total = c["cells"]
    done = c["ran"] + c["cached"] + c["failed"]
    pct = 100.0 * done / total if total else 0.0
    wall = manifest.wall_s
    rate = done / wall if wall > 0 else 0.0
    lines: list[str] = []
    lines.append(
        f"repro campaign — {manifest.name or '?'} "
        f"[run {manifest.run_id}], {manifest.workers} worker(s)"
    )
    lines.append("")
    lines.append(
        f"  cells     {done}/{total} ({pct:.0f}%)   "
        f"{c['ran']} ran  {c['cached']} cached  "
        f"{c['failed']} failed  {c['retries']} retries"
    )
    lines.append(
        f"  rate      {rate:6.2f} cells/s   "
        f"wall {hms(wall)}   "
        f"eta {'--' if eta_s is None else hms(eta_s)}"
    )
    lines.append(
        f"  time      queue-wait {c['queue_wait_s']:.2f}s   "
        f"compute {c['compute_s']:.2f}s   "
        f"wasted {c['wasted_s']:.2f}s   "
        f"banked {c['banked_s']:.2f}s"
    )
    lines.append("")
    if manifest.worker_rows:
        lines.append(
            "  worker      state  cells  fails  rss      current cell (age)"
        )
        for w in manifest.worker_rows:
            state, cell = "idle", "-"
            if w.worker in busy:
                label, since = busy[w.worker]
                state = "busy"
                cell = f"{label} ({fmt_age(manifest.finished_at - since)})"
            lines.append(
                f"  {w.worker:<10}  {state:<5}  "
                f"{w.cells_done:5d}  {w.failed_attempts:5d}  "
                f"{fmt_bytes(w.max_rss_bytes):<7}  {cell}"
            )
    else:
        lines.append("  worker    (serial run: cells execute in-process)")
    failed = [row for row in manifest.cells if row.error is not None]
    if failed:
        err = failed[-1]
        lines.append("")
        lines.append(
            f"  last error  {err.label} (attempt {err.attempts}): "
            f"{err.error[:120]}"
        )
    return "\n".join(lines)


class CampaignWatch:
    """Background repaint loop over a :class:`FleetMonitor`.

    ``start()`` launches the daemon thread; ``stop()`` joins it.  With
    ``once`` the live loop is suppressed entirely — the caller prints
    one :func:`final_frame` after the campaign returns instead.
    """

    def __init__(
        self,
        monitor: FleetMonitor,
        *,
        interval_s: float = DEFAULT_REFRESH_S,
        once: bool = False,
        out=None,
    ) -> None:
        self.monitor = monitor
        self.interval_s = interval_s
        self.once = once
        self.out = out
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "CampaignWatch":
        if not self.once and self._thread is None:
            stream = sys.stderr if self.out is None else self.out
            self._thread = threading.Thread(
                target=repaint, name="repro-campaign-watch", daemon=True,
                args=(self.final_frame, self.interval_s, self._stop, stream),
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def final_frame(self) -> str:
        """The monitor's current state as a plain frame (also the
        ``--once`` output)."""
        monitor = self.monitor
        busy = monitor.busy()
        return render_fleet(monitor.manifest(), monitor.eta_s(), busy)
