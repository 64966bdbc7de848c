"""``repro campaign --watch``: a live terminal dashboard over the fleet.

Renders :meth:`~repro.campaign.fleet.FleetMonitor.snapshot` as a
plain-text frame with no escape codes inside it, repainted in place
with one clear-and-home sequence in live mode.  ``--once`` prints the
final frame un-escaped to stdout — the CI-greppable snapshot artifact.

The repaint loop (:func:`repro.obs.term.repaint`) runs in a daemon
thread beside the campaign's main thread (which is busy driving the
worker pool), reading the monitor's thread-safe snapshots; it owns no
state of its own, so a campaign without ``--watch`` pays nothing.
"""

from __future__ import annotations

import sys
import threading

from repro.campaign.fleet import FleetMonitor
from repro.obs.term import fmt_age, fmt_bytes, hms, repaint

#: Default repaint interval, seconds.
DEFAULT_REFRESH_S = 1.0


def render_fleet(snapshot: dict) -> str:
    """One dashboard frame as plain text (no escape codes)."""
    lines: list[str] = []
    total = snapshot["total"]
    done = snapshot["done"]
    pct = 100.0 * done / total if total else 0.0
    eta = snapshot["eta_s"]
    lines.append(
        f"repro campaign — {snapshot['name'] or '?'} "
        f"[run {snapshot['run_id']}], {snapshot['workers']} worker(s)"
    )
    lines.append("")
    lines.append(
        f"  cells     {done}/{total} ({pct:.0f}%)   "
        f"{snapshot['ran']} ran  {snapshot['cached']} cached  "
        f"{snapshot['failed']} failed  {snapshot['retries']} retries"
    )
    lines.append(
        f"  rate      {snapshot['cells_per_sec']:6.2f} cells/s   "
        f"wall {hms(snapshot['wall_s'])}   "
        f"eta {'--' if eta is None else hms(eta)}"
    )
    lines.append(
        f"  time      queue-wait {snapshot['queue_wait_s']:.2f}s   "
        f"compute {snapshot['compute_s']:.2f}s   "
        f"wasted {snapshot['wasted_s']:.2f}s   "
        f"banked {snapshot['banked_s']:.2f}s"
    )
    lines.append("")
    rows = snapshot["worker_rows"]
    if rows:
        lines.append(
            "  worker      state  cells  fails  "
            "hb-age  rss      current cell (age)"
        )
        for w in rows:
            cell = w["cell"] or "-"
            if w["cell"] is not None:
                cell = f"{cell} ({fmt_age(w['cell_age_s'])})"
            lines.append(
                f"  {w['worker']:<10}  {w['state']:<5}  "
                f"{w['done']:5d}  {w['failed_attempts']:5d}  "
                f"{fmt_age(w['hb_age_s']):>6}  {fmt_bytes(w['rss_bytes']):<7}  "
                f"{cell}"
            )
    else:
        lines.append("  worker    (serial run: cells execute in-process)")
    err = snapshot["last_error"]
    if err is not None:
        lines.append("")
        lines.append(
            f"  last error  {err['cell']} (attempt {err['attempts']}): "
            f"{err['error'][:120]}"
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
        """The current snapshot as a plain frame (also the ``--once`` output)."""
        return render_fleet(self.monitor.snapshot())
