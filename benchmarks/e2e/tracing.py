"""Spans recorded from outside the program, and the span file.

Nothing under ``src/`` is instrumented here.  A traced repetition hands
``run_campaign`` its public injection points — a ``ResultStore``
subclass, a ``worker`` callable, a ``FleetMonitor`` subclass, a progress
hook — each of which wraps the call it forwards in a
``repro.obs.spans.SpanRecorder`` span on the wall clock; the harness's
``Experiment`` and the store's two codec functions are wrapped the same
way for the duration.  Every span
of one cell carries (or inherits) the cell's 16-hex key prefix, the same
id the program stamps on logs and manifests.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.campaign import FleetMonitor, ResultStore, cell_correlation_id, execute_cell
from repro.campaign import store as store_module
from repro.harness.experiment import Experiment
from repro.obs.analysis.spantree import build_span_tree, walk
from repro.obs.spans import SpanRecorder


class CampaignTracer:
    """The traced stand-ins for one campaign repetition."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._open_cell = None

    # -- the per-cell root span ----------------------------------------
    def open_cell(self, cell) -> bool:
        """Open ``campaign.cell`` unless one is open; says whether it did."""
        if self._open_cell is not None:
            return False
        span = self.rec.span(
            "campaign.cell", cell=cell_correlation_id(cell), label=cell.label
        )
        span.__enter__()
        self._open_cell = span
        return True

    def close_cell(self) -> None:
        span, self._open_cell = self._open_cell, None
        if span is not None:
            span.__exit__(None, None, None)

    # -- injection points ----------------------------------------------
    def store(self, root) -> "TracedStore":
        return TracedStore(root, self)

    def monitor(self, run_id: str) -> "TracedMonitor":
        return TracedMonitor(run_id, tracer=self)

    def worker(self, cell, baseline=None, timeout_s=None):
        """``execute_cell`` inside a ``campaign.worker`` span."""
        with self.rec.span("campaign.worker"):
            return execute_cell(cell, baseline, timeout_s)

    @contextmanager
    def program_spans(self):
        """For the duration, a span around each call the campaign makes
        into the harness (``Experiment()``, ``Experiment.run``) and into
        the store's codec (``report_to_dict``, ``report_from_dict``)."""
        rec = self.rec
        init, run = Experiment.__init__, Experiment.run
        encode, decode = store_module.report_to_dict, store_module.report_from_dict

        def traced_init(experiment, *args, **kwargs):
            with rec.span("harness.experiment_init"):
                init(experiment, *args, **kwargs)

        def traced_run(experiment, *args, **kwargs):
            with rec.span(f"engines.{experiment.config.engine}.run"):
                return run(experiment, *args, **kwargs)

        def traced_encode(report):
            with rec.span("campaign.serialize.encode"):
                return encode(report)

        def traced_decode(data):
            with rec.span("campaign.serialize.decode"):
                return decode(data)

        Experiment.__init__, Experiment.run = traced_init, traced_run
        store_module.report_to_dict = traced_encode
        store_module.report_from_dict = traced_decode
        try:
            yield
        finally:
            Experiment.__init__, Experiment.run = init, run
            store_module.report_to_dict = encode
            store_module.report_from_dict = decode


class TracedStore(ResultStore):
    def __init__(self, root, tracer: CampaignTracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def get_entry(self, cell):
        # A cached cell has no other start hook: its root span opens with
        # the lookup and closes in the progress hook.  A lookup that
        # misses closes it again; the cell reopens when it is queued.
        opened = self.tracer.open_cell(cell)
        with self.tracer.rec.span("campaign.store.get_entry"):
            entry = super().get_entry(cell)
        if entry is None and opened:
            self.tracer.close_cell()
        return entry

    def put(self, cell, report, *, elapsed_s: float = 0.0) -> str:
        with self.tracer.rec.span("campaign.store.put"):
            return super().put(cell, report, elapsed_s=elapsed_s)

    def put_manifest(self, manifest) -> str:
        with self.tracer.rec.span("campaign.store.put_manifest"):
            return super().put_manifest(manifest)


class TracedMonitor(FleetMonitor):
    def __init__(self, run_id: str, *, tracer: CampaignTracer) -> None:
        super().__init__(run_id)
        self.tracer = tracer

    def cell_queued(self, cell, attempt: int) -> None:
        self.tracer.open_cell(cell)
        super().cell_queued(cell, attempt)


# ----------------------------------------------------------------------
def span_rows(recorders: list[SpanRecorder]) -> list[dict]:
    """Flat rows with explicit ``id``/``parent``, self time and the cell
    id each span carries or inherits from its nearest ancestor."""
    rows: list[dict] = []
    for recorder in recorders:
        stack: list[tuple[int, str | None]] = []  # (row id, cell) by depth
        for node, depth in walk(build_span_tree(recorder.spans)):
            del stack[depth:]
            attrs = dict(node.span.attrs)
            parent_id, inherited = stack[-1] if stack else (None, None)
            cell = attrs.get("cell", inherited)
            rows.append(
                {
                    "id": len(rows),
                    "parent": parent_id,
                    "name": node.name,
                    "t_start": node.span.t_start,
                    "t_end": node.span.t_end,
                    "self_s": node.self_time_s,
                    "cell": cell,
                    "attrs": attrs,
                }
            )
            stack.append((rows[-1]["id"], cell))
    return rows


def cell_ledger(rows: list[dict]) -> dict[str, dict]:
    """Per cell id: wall time (its outermost spans) against the sum of
    the self times of every span that belongs to it."""
    by_id = {row["id"]: row for row in rows}
    cells: dict[str, dict] = {}
    for row in rows:
        cell = row["cell"]
        if cell is None:
            continue
        entry = cells.setdefault(cell, {"wall_s": 0.0, "self_sum_s": 0.0, "spans": 0})
        entry["self_sum_s"] += row["self_s"]
        entry["spans"] += 1
        parent = by_id.get(row["parent"])
        if parent is None or parent["cell"] != cell:
            entry["wall_s"] += row["t_end"] - row["t_start"]
    return cells


def worst_cell_gap(cells: dict[str, dict]) -> float:
    """Largest ``|self-time sum - wall| / wall`` over all cells."""
    return max(
        (abs(c["self_sum_s"] - c["wall_s"]) / c["wall_s"] for c in cells.values() if c["wall_s"] > 0),
        default=0.0,
    )


def self_time_by_name(rows: list[dict]) -> list[dict]:
    """Where the time went: total self time per span name, largest first."""
    totals: dict[str, dict] = {}
    for row in rows:
        entry = totals.setdefault(row["name"], {"name": row["name"], "count": 0, "self_s": 0.0})
        entry["count"] += 1
        entry["self_s"] += row["self_s"]
    return sorted(totals.values(), key=lambda e: (-e["self_s"], e["name"]))


def write_span_file(path: Path, recorders: list[SpanRecorder], meta: dict) -> dict:
    """Write the spans kept in memory during a traced run; returns the
    document's summary block."""
    rows = span_rows(recorders)
    cells = cell_ledger(rows)
    summary = {
        **meta,
        "timebase": "wall",
        "n_spans": len(rows),
        "n_cells": len(cells),
        "worst_cell_gap": worst_cell_gap(cells),
        "self_time_by_name": self_time_by_name(rows),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": summary, "cells": cells, "spans": rows}))
    return summary
