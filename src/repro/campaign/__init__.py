"""Campaign engine: parallel sweep orchestration with a persistent store.

Every figure and table in the paper is a sweep over
(matrix × scheme × fault load × rank count).  This package runs such
sweeps as *campaigns*: a declarative
:class:`~repro.campaign.spec.CampaignSpec` expands the grid, a
:class:`~repro.campaign.runner.CampaignRunner` executes the cells on a
fault-tolerant process pool, and a
:class:`~repro.campaign.store.ResultStore` persists every result under
a content hash of its full configuration — so re-running any campaign
(or any benchmark wired through the store) is incremental and
resumable.

>>> from repro.campaign import ResultStore, preset, run_campaign
>>> result = run_campaign(
...     preset("iteration-study", matrices=("Kuu",)),
...     store=ResultStore(".repro-cache"),
...     max_workers=4,
... )                                           # doctest: +SKIP
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "fleet": (
        "DEFAULT_HEARTBEAT_S",
        "FleetMonitor",
        "ProgressEventError",
        "cell_correlation_id",
        "cell_event",
        "cell_event_from_line",
        "cell_event_to_line",
    ),
    "manifest": (
        "ManifestCell",
        "ManifestError",
        "ManifestWorker",
        "RunManifest",
        "format_manifest",
        "manifest_from_doc",
        "manifest_to_doc",
    ),
    "progress": (
        "ProgressReporter",
        "format_attribution_summary",
        "format_normalized_tables",
        "format_summary",
        "format_telemetry_summary",
        "summary_counters",
    ),
    "runner": (
        "CampaignResult",
        "CampaignRunner",
        "CellExecutionError",
        "CellResult",
        "CellTimeout",
        "execute_cell",
        "run_campaign",
        "run_cell_in_worker",
    ),
    "serialize": ("report_from_dict", "report_to_dict"),
    "spec": (
        "BASELINE_SCHEME",
        "CampaignCell",
        "CampaignSpec",
        "preset",
        "preset_names",
    ),
    "store": ("ResultStore", "StoreEntry", "StoreLockedError", "cell_key"),
    "watch": ("CampaignWatch", "render_fleet"),
}

__all__ = [
    "BASELINE_SCHEME",
    "CampaignCell",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignWatch",
    "CellExecutionError",
    "CellResult",
    "CellTimeout",
    "DEFAULT_HEARTBEAT_S",
    "FleetMonitor",
    "ManifestCell",
    "ManifestError",
    "ManifestWorker",
    "ProgressEventError",
    "ProgressReporter",
    "ResultStore",
    "RunManifest",
    "StoreEntry",
    "StoreLockedError",
    "cell_correlation_id",
    "cell_event",
    "cell_event_from_line",
    "cell_event_to_line",
    "cell_key",
    "execute_cell",
    "format_attribution_summary",
    "format_manifest",
    "format_normalized_tables",
    "format_summary",
    "format_telemetry_summary",
    "manifest_from_doc",
    "manifest_to_doc",
    "preset",
    "preset_names",
    "render_fleet",
    "report_from_dict",
    "report_to_dict",
    "run_campaign",
    "run_cell_in_worker",
    "summary_counters",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
