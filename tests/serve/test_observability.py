"""Live observability: request ids end to end, lifetime summary."""

from __future__ import annotations

import asyncio
import re
import threading

import pytest

from repro.obs.logging import (
    MemorySink,
    bound_request_id,
    configure_logging,
    reset_logging,
)
from repro.obs.telemetry import Telemetry
from repro.serve import ServeError, ServingCore

from tests.serve.conftest import make_cell, run

HEX_ID = re.compile(r"^[0-9a-f]{16}$")


def root_span_ids(report_doc: dict) -> str | None:
    """The request_ids attr on a report JSON's root solve span."""
    for row in report_doc["telemetry"]["spans"]:
        if row["name"] == "solve" and row["depth"] == 0:
            return row["attrs"].get("request_ids")
    return None


class TestRequestIdsOverHttp:
    def test_every_response_carries_a_minted_id(self, served):
        served.client.health()
        rid = served.client.last_request_id
        assert rid is not None and HEX_ID.match(rid)
        served.client.health()
        assert served.client.last_request_id != rid  # one id per request

    def test_inbound_id_is_honored(self, served):
        served.client.solve(
            request_id="caller-chosen-id", scheme="RD", seed=1101, trace=True
        )
        assert served.client.last_request_id == "caller-chosen-id"

    def test_hostile_inbound_id_is_replaced(self, served):
        served.client.solve(request_id="has spaces!", scheme="RD", seed=1102)
        rid = served.client.last_request_id
        assert rid != "has spaces!"
        assert HEX_ID.match(rid)

    def test_error_responses_carry_the_id_too(self, served):
        with pytest.raises(ServeError):
            served.client.solve(request_id="err-rid", scheme="NOPE")
        assert served.client.last_request_id == "err-rid"

    def test_request_id_resolves_to_the_stored_span_tree(self, served):
        """The acceptance demo: id in, same id on the stored trace."""
        answer = served.client.solve(
            request_id="corr-demo-1", scheme="RD", seed=1103, trace=True
        )
        assert answer["cache"] == "computed"
        stored = served.client.report(answer["key"])
        assert root_span_ids(stored["report"]) == "corr-demo-1"
        # the id also rides the solve response itself
        assert root_span_ids(answer["report"]) == "corr-demo-1"

    def test_request_id_lands_in_the_structured_logs(self, served):
        sink = MemorySink()
        configure_logging(level="debug", stderr=False, memory=sink)
        try:
            served.client.solve(
                request_id="log-corr-1", scheme="RD", seed=1104
            )
            records = [
                r for r in sink.records() if r.request_id == "log-corr-1"
            ]
            assert any(r.msg == "request" for r in records)
            assert any(r.msg == "solve answered" for r in records)
        finally:
            reset_logging()

    def test_untraced_solves_have_no_id_annotation(self, served):
        answer = served.client.solve(
            request_id="no-trace-rid", scheme="RD", seed=1105
        )
        assert answer["cache"] == "computed"
        assert answer["report"]["telemetry"] is None


class TestCoalescedIds:
    def test_coalesced_requests_share_compute_but_keep_their_ids(self):
        """Two identical in-flight solves: one computation, both ids on
        the shared trace, each waiter keeps its own identity."""
        gate = threading.Event()
        cell = make_cell(seed=1110)

        def slow_batch(config, schemes):
            gate.wait(timeout=30.0)
            # a minimal traced report: the annotation targets the root
            # solve span of whatever the engine produced
            from types import SimpleNamespace

            tel = Telemetry()
            with tel.spans.span("solve"):
                pass
            report = SimpleNamespace(details={"telemetry": tel})
            return {scheme: report for scheme in schemes}

        async def scenario():
            core = ServingCore(None, compute=slow_batch)
            with core:

                async def one(rid):
                    with bound_request_id(rid):
                        return await core.solve_cell(cell)

                first = asyncio.create_task(one("rid-aaaa"))
                # let the leader register as in-flight before the twin
                while not core._inflight:
                    await asyncio.sleep(0.001)
                second = asyncio.create_task(one("rid-bbbb"))
                while cell_waiters(core) < 2:
                    await asyncio.sleep(0.001)
                gate.set()
                return await asyncio.gather(first, second)

        def cell_waiters(core):
            ids = core._inflight_ids.values()
            return sum(len(v) for v in ids)

        a, b = run(scenario())
        assert {a.source, b.source} == {"computed", "coalesced"}
        assert a.report is b.report  # one computation served both
        tel = a.report.details["telemetry"]
        root = tel.spans.of_name("solve")[0]
        assert dict(root.attrs)["request_ids"] == "rid-aaaa,rid-bbbb"

    def test_microbatched_cells_each_keep_their_own_id(self, served):
        """Distinct schemes of one config may share a group (one
        Experiment) but are distinct cells: each trace gets its own
        request id."""
        from repro.serve.client import ServeClient

        answers = {}

        def solve(scheme, rid):
            with ServeClient(served.server.host, served.server.port) as c:
                answers[scheme] = c.solve(
                    request_id=rid, scheme=scheme, seed=1111, trace=True
                )

        threads = [
            threading.Thread(target=solve, args=("RD", "rid-batch-rd")),
            threading.Thread(target=solve, args=("F0", "rid-batch-f0")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers["RD"]["cache"] == "computed"
        assert answers["F0"]["cache"] == "computed"
        assert root_span_ids(answers["RD"]["report"]) == "rid-batch-rd"
        assert root_span_ids(answers["F0"]["report"]) == "rid-batch-f0"


class TestLifetimeSummary:
    def test_summary_counts_requests_and_solves(self, served):
        # its own solve: the module's server may be fresh when this runs
        served.client.solve(scheme="RD", seed=1120)
        served.client.health()
        summary = served.app.lifetime_summary()
        assert set(summary) == {
            "uptime_s", "requests", "errors_5xx", "solves_by_source",
        }
        assert summary["requests"] > 0
        assert summary["solves_by_source"].get("computed", 0) > 0
