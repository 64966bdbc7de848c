"""Reply bodies: a report's wire text is encoded once and spliced in.

Every tier must answer with exactly the bytes ``HttpResponse.json`` of
the whole envelope-plus-report dict would produce, and a hot hit must
not serialize the report again.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import pytest

from repro.campaign import serialize
from repro.campaign.serialize import report_to_dict
from repro.campaign.store import ResultStore, cell_key
from repro.serve import ServeApp, ServingCore
from repro.serve.app import parse_solve_request
from repro.serve.core import compute_group
from repro.serve.http import HttpRequest
from tests.serve.conftest import make_cell, run

TIERS = ("computed", "store", "lru", "coalesced")

#: The analytic cell serve_hot asks for, and a traced sim cell whose
#: root span carries the request ids.
CELLS = {
    "analytic": {"scheme": "LI", "seed": 2200},
    "traced-sim": {"scheme": "RD", "engine": "sim", "trace": True, "seed": 2201},
}


def solve_request(fields: dict, request_id: str) -> HttpRequest:
    return HttpRequest(
        method="POST",
        path="/v1/solve",
        query={},
        headers={"x-repro-request-id": request_id},
        body=json.dumps(fields).encode(),
    )


def root_span_ids(report) -> str | None:
    tel = report.details.get("telemetry")
    if tel is None:
        return None
    return dict(tel.spans.of_name("solve")[0].attrs).get("request_ids")


class RecordingCore(ServingCore):
    """A serving core that keeps every outcome it answered with."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.outcomes = []

    async def solve_cell(self, cell):
        outcome = await super().solve_cell(cell)
        self.outcomes.append(outcome)
        return outcome


async def answer(app: ServeApp, fields: dict, tier: str, store, gate) -> tuple:
    """Answer ``fields``' cell from ``tier``; return (response, outcome,
    the request ids expected on its trace).  ``gate`` holds compute."""
    core = app.core
    if tier == "computed":
        response = await app.handle(solve_request(fields, "rid-only"))
        return response, core.outcomes[-1], "rid-only"
    if tier == "store":
        with ServingCore(store) as filler:
            await ServeApp(filler).handle(solve_request(fields, "rid-filler"))
        response = await app.handle(solve_request(fields, "rid-reader"))
        return response, core.outcomes[-1], "rid-filler"
    if tier == "lru":
        await app.handle(solve_request(fields, "rid-first"))
        response = await app.handle(solve_request(fields, "rid-again"))
        return response, core.outcomes[-1], "rid-first"
    # coalesced: the twin arrives while the leader's group is computing
    leader = asyncio.create_task(app.handle(solve_request(fields, "rid-lead")))
    while not core._inflight:
        await asyncio.sleep(0.001)
    twin = asyncio.create_task(app.handle(solve_request(fields, "rid-twin")))
    while sum(len(ids) for ids in core._inflight_ids.values()) < 2:
        await asyncio.sleep(0.001)
    gate.set()
    await leader
    response = await twin
    outcome = next(o for o in core.outcomes if o.source == "coalesced")
    return response, outcome, "rid-lead,rid-twin"


class TestReplyBytes:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("cell_name", sorted(CELLS))
    def test_body_is_the_full_dict_encoded_at_once(self, tmp_path, tier, cell_name):
        fields = {
            "matrix": "wathen100",
            "nranks": 8,
            "n_faults": 2,
            "scale": 0.25,
            "engine": "analytic",
            **CELLS[cell_name],
        }
        gate = threading.Event()
        if tier != "coalesced":
            gate.set()

        def gated(config, schemes):
            assert gate.wait(timeout=30.0)
            return compute_group(config, schemes)

        with ResultStore(tmp_path / "store") as store:
            core = RecordingCore(store if tier == "store" else None, compute=gated)
            with core:
                response, outcome, ids = run(
                    answer(ServeApp(core), fields, tier, store, gate)
                )
        assert response.status == 200
        assert outcome.source == tier
        reply = json.loads(response.body)
        cell = parse_solve_request(dict(fields))
        expected = json.dumps(
            {
                "key": cell_key(cell),
                "label": cell.label,
                "cache": tier,
                "elapsed_s": reply["elapsed_s"],
                "report": report_to_dict(outcome.report),
            },
            allow_nan=False,
        ).encode("utf-8")
        assert response.body == expected
        if CELLS[cell_name].get("trace"):
            assert root_span_ids(outcome.report) == ids
        else:
            assert root_span_ids(outcome.report) is None

    def test_stored_report_body_is_the_full_dict_encoded_at_once(self, tmp_path):
        cell = make_cell("F0", seed=2202, trace=True)

        async def scenario(core):
            await core.solve_cell(cell)
            key = cell_key(cell)
            request = HttpRequest("GET", f"/v1/reports/{key}", {}, {}, b"")
            return await ServeApp(core).handle(request)

        with ResultStore(tmp_path / "store") as store:
            with ServingCore(store) as core:
                response = run(scenario(core))
            entry = store.entry_by_key(cell_key(cell))
        assert response.status == 200
        assert response.body == json.dumps(
            {
                "key": entry.key,
                "label": cell.label,
                "elapsed_s": entry.elapsed_s,
                "created_at": entry.created_at,
                "report": report_to_dict(entry.report),
            },
            allow_nan=False,
        ).encode("utf-8")


class TestHotHitSerializesNothing:
    def test_an_lru_hit_calls_report_to_dict_zero_times(self, monkeypatch):
        fields = {
            "matrix": "wathen100",
            "nranks": 8,
            "n_faults": 2,
            "scale": 0.25,
            "scheme": "RD",
            "seed": 2203,
        }
        calls = []
        original = serialize.report_to_dict

        def spy(report):
            calls.append(report)
            return original(report)

        # every module that bound the name, so no caller escapes the spy
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, "report_to_dict", None) is original
            ):
                monkeypatch.setattr(module, "report_to_dict", spy)

        async def scenario(app):
            first = await app.handle(solve_request(fields, "rid-cold"))
            encoded = len(calls)
            hot = await app.handle(solve_request(fields, "rid-hot"))
            return first, encoded, hot

        with ServingCore(None) as core:
            first, encoded, hot = run(scenario(ServeApp(core)))
        assert json.loads(first.body)["cache"] == "computed"
        assert json.loads(hot.body)["cache"] == "lru"
        assert encoded == 1
        assert len(calls) == encoded  # the hit reused the computed text
        hot_report = hot.body[hot.body.index(b'"report": ') :]
        assert first.body.endswith(hot_report)
