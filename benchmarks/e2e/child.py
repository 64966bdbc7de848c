"""Fresh-interpreter helpers: ``child.py <mode> <json-args>``.

``probe``     what ``setup_s`` times on the campaign workloads: import
              ``repro.campaign``, expand the spec, open the store and —
              when the first unit of work is a solve — build the first
              cell's ``Experiment``; then print ``ready``.
``populate``  fill a store with the given specs (the ``resume_cached``
              fixture) in a process of its own, so the solver's memory
              never counts towards the resume path's peak RSS.  Prints
              ``{cell key: sha256 of the stored report}``.
"""

from __future__ import annotations

import hashlib
import json
import sys


def report_digest(report) -> str:
    """SHA-256 of a report's canonical JSON payload."""
    from repro.campaign import report_to_dict

    blob = json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def probe(args: dict) -> None:
    from repro.campaign import CampaignSpec, ResultStore
    from repro.harness.experiment import Experiment

    cells = CampaignSpec(**args["spec"]).cells()
    store = ResultStore(args["store"])
    if args["build_experiment"]:
        Experiment(cells[0].config)
    print("ready", flush=True)
    store.close()


def populate(args: dict) -> None:
    from repro.campaign import CampaignSpec, ResultStore, cell_key, run_campaign

    digests = {}
    with ResultStore(args["store"]) as store:
        for spec_args in args["specs"]:
            result = run_campaign(
                CampaignSpec(**spec_args), store=store, max_workers=1, run_id="fixture"
            )
            if result.n_failed:
                sys.exit(f"fixture: {result.n_failed} cells failed")
            for r in result.results:
                digests[cell_key(r.cell)] = report_digest(r.report)
    print(json.dumps(digests))


if __name__ == "__main__":
    {"probe": probe, "populate": populate}[sys.argv[1]](json.loads(sys.argv[2]))
