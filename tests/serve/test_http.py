"""End-to-end API tests: a real server, a real client, real solves.

One BackgroundServer per module (ephemeral port, tmp store); the
acceptance test at the bottom pins the ISSUE guarantee that a served
report is bit-identical JSON to a direct engine call.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.campaign.serialize import report_to_dict
from repro.campaign.store import ResultStore, cell_key
from repro.harness.experiment import Experiment
from repro.serve import (
    BackgroundServer,
    ServeApp,
    ServeClient,
    ServeError,
    ServingCore,
    http,
)
from repro.serve.http import MAX_BODY
from tests.serve.conftest import make_cell


def _recv_response(raw: socket.socket) -> bytes:
    """Read until the server closes the connection (it sends
    ``Connection: close`` on errors)."""
    chunks = []
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


SOLVE = {
    "matrix": "wathen100",
    "nranks": 8,
    "n_faults": 2,
    "scale": 0.25,
    "engine": "analytic",
}


class TestHealthAndRouting:
    def test_healthz(self, served):
        health = served.client.health()
        assert health["status"] == "ok"
        assert {"sim", "analytic"} <= set(health["engines"])
        assert health["store"] is True
        assert health["uptime_s"] >= 0

    def test_ephemeral_port_was_bound(self, served):
        assert served.server.port != 0

    def test_unknown_route_is_404(self, served):
        with pytest.raises(ServeError) as exc:
            served.client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_malformed_request_line_is_400(self, served):
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=10.0
        ) as raw:
            raw.sendall(b"GARBAGE\r\n\r\n")
            answer = raw.recv(4096)
        assert answer.startswith(b"HTTP/1.1 400 ")

    def test_http_10_defaults_to_connection_close(self, served):
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=10.0
        ) as raw:
            raw.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            answer = raw.recv(4096)
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in answer

    def test_oversized_body_is_rejected_before_it_is_read(self, served):
        # the cap is enforced from Content-Length alone: the server
        # answers 400 and hangs up without draining the body
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=10.0
        ) as raw:
            raw.sendall(
                b"POST /v1/solve HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode()
            )
            answer = raw.recv(4096)
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"body too large" in answer
        assert b"Connection: close" in answer

    def test_body_at_the_cap_is_still_read(self, served):
        # exactly MAX_BODY bytes must not trip the cap; the padded JSON
        # then fails validation (unknown field), proving the body was
        # parsed rather than refused
        body = b'{"pad": "' + b"x" * (MAX_BODY - 11) + b'"}'
        assert len(body) == MAX_BODY
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=10.0
        ) as raw:
            raw.sendall(
                b"POST /v1/solve HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            answer = _recv_response(raw)
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"body too large" not in answer
        assert b"unknown fields" in answer


class TestSolve:
    def test_computed_then_lru(self, served):
        first = served.client.solve(**SOLVE, scheme="RD", seed=10)
        second = served.client.solve(**SOLVE, scheme="RD", seed=10)
        assert first["cache"] in ("computed", "store")
        assert second["cache"] == "lru"
        assert second["report"] == first["report"]
        assert second["key"] == first["key"]
        assert first["elapsed_s"] >= second["elapsed_s"] >= 0

    def test_key_matches_the_store_hash(self, served):
        answer = served.client.solve(**SOLVE, scheme="F0", seed=11)
        assert answer["key"] == cell_key(make_cell("F0", seed=11))
        assert answer["label"] == make_cell("F0", seed=11).label

    def test_engine_defaults_to_analytic(self, served):
        fields = {k: v for k, v in SOLVE.items() if k != "engine"}
        answer = served.client.solve(**fields, scheme="RD", seed=12)
        assert answer["report"]["details"]["engine"] == "analytic"

    def test_backend_is_part_of_the_key(self, served):
        batched = served.client.solve(**SOLVE, scheme="RD", seed=14)
        loop = served.client.solve(
            **SOLVE, scheme="RD", seed=14, backend="loop"
        )
        assert loop["key"] != batched["key"]
        assert loop["key"] == cell_key(
            make_cell("RD", seed=14, backend="loop")
        )

    def test_unknown_backend_is_400(self, served):
        with pytest.raises(ServeError) as exc:
            served.client.solve(**SOLVE, scheme="RD", backend="gpu")
        assert exc.value.status == 400
        assert "unknown backend" in exc.value.message

    def test_preconditioner_is_part_of_the_key_and_the_answer(self, served):
        plain = served.client.solve(**SOLVE, scheme="FF", seed=19)
        jacobi = served.client.solve(
            **SOLVE, scheme="FF", seed=19, preconditioner="jacobi"
        )
        assert jacobi["key"] != plain["key"]
        assert jacobi["key"] == cell_key(
            make_cell("FF", seed=19, preconditioner="jacobi")
        )
        assert jacobi["report"]["iterations"] != plain["report"]["iterations"]
        # an explicit null is the default: the same cell, from the LRU
        unset = served.client.solve(
            **SOLVE, scheme="FF", seed=19, preconditioner=None
        )
        assert (unset["key"], unset["cache"]) == (plain["key"], "lru")

    @pytest.mark.parametrize(
        "value, fragment", [("ilu", "unknown preconditioner"), (1, "str or NoneType")]
    )
    def test_invalid_preconditioner_is_400(self, served, value, fragment):
        with pytest.raises(ServeError) as exc:
            served.client.solve(**SOLVE, scheme="RD", preconditioner=value)
        assert exc.value.status == 400
        assert fragment in exc.value.message

    def test_model_is_an_alias_for_analytic(self, served):
        fields = dict(SOLVE, engine="model")
        answer = served.client.solve(**fields, scheme="RD", seed=13)
        direct = served.client.solve(**SOLVE, scheme="RD", seed=13)
        assert answer["key"] == direct["key"]
        assert answer["report"] == direct["report"]

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"scheme": "BOGUS"}, "unknown scheme"),
            ({"scheme": "RD", "frobnicate": 1}, "unknown fields"),
            ({"scheme": "RD", "engine": "quantum"}, "unknown engine"),
            ({"scheme": "RD", "nranks": "eight"}, ""),
        ],
    )
    def test_invalid_solve_bodies_are_400(self, served, fields, fragment):
        base = {k: v for k, v in SOLVE.items() if k not in fields}
        with pytest.raises(ServeError) as exc:
            served.client.solve(**base, **fields)
        assert exc.value.status == 400
        assert fragment in exc.value.message

    def test_non_object_body_is_400(self, served):
        with pytest.raises(ServeError) as exc:
            served.client._request("POST", "/v1/solve", payload=[1, 2, 3])
        assert exc.value.status == 400

    def test_acceptance_served_json_is_bit_identical_to_direct_run(
        self, served
    ):
        """ISSUE acceptance: /v1/solve returns the exact SolveReport JSON
        a direct engine call serializes to — no float drift, no field
        loss, through whichever cache tier answers."""
        cell = make_cell("LI", seed=14)
        served_report = served.client.solve(**SOLVE, scheme="LI", seed=14)
        direct = Experiment(cell.config).run(cell.scheme)
        assert served_report["report"] == report_to_dict(direct)
        replay = served.client.solve(**SOLVE, scheme="LI", seed=14)
        assert replay["cache"] == "lru"
        assert replay["report"] == report_to_dict(direct)


class TestMetricsAndStats:
    def test_metrics_exposition_reflects_the_cache_tiers(self, served):
        served.client.solve(**SOLVE, scheme="RD", seed=15)
        served.client.solve(**SOLVE, scheme="RD", seed=15)
        text = served.client.metrics_text()
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_solve_total{engine="analytic",source="lru"}' in text
        assert 'serve_requests_total{endpoint="/v1/solve",status="200"}' in text
        assert "serve_request_latency_s_bucket" in text

    def test_store_stats_counts_bytes_and_lookups(self, served):
        served.client.solve(**SOLVE, scheme="RD", seed=16)
        stats = served.client.store_stats()
        assert stats["store"]["entries"] >= 1
        assert stats["store"]["payload_bytes"] > 0
        assert stats["store"]["misses"] >= 1  # every computed cell missed first
        assert stats["serving"]["lru_capacity"] == served.core.cache_size
        assert stats["serving"]["solved_by_source"]["computed"] >= 1


class TestReports:
    def test_index_report_and_diff(self, served):
        a = served.client.solve(**SOLVE, scheme="RD", seed=17)
        b = served.client.solve(**SOLVE, scheme="LI", seed=17)

        index = served.client.reports()
        keys = {row["key"] for row in index["entries"]}
        assert {a["key"], b["key"]} <= keys
        assert index["count"] == len(index["entries"])

        full = served.client.report(a["key"])
        assert full["report"] == a["report"]
        assert full["elapsed_s"] >= 0

        same = served.client.diff(a["key"], a["key"])
        assert same["identical"] is True
        assert same["n_changes"] == 0

        diff = served.client.diff(a["key"], b["key"])
        assert diff["identical"] is False
        assert diff["n_changes"] > 0
        assert diff["text"]

    def test_a_report_request_reads_only_its_own_payload(self, served, monkeypatch):
        """By-key lookups go index row -> one payload file, however many
        cells the store holds (they used to decode every payload)."""
        from dataclasses import replace

        from repro.campaign.serialize import report_from_dict

        a = served.client.solve(**SOLVE, scheme="RD", seed=18)
        b = served.client.solve(**SOLVE, scheme="LI", seed=18)
        cell = make_cell("RD", seed=18)
        report = report_from_dict(a["report"])
        for seed in range(1000, 1020):  # pad the store to >= 20 other cells
            served.store.put(
                replace(cell, config=replace(cell.config, seed=seed)), report
            )
        assert len(served.store) >= 22

        reads = []
        real = served.store._read_payload
        monkeypatch.setattr(
            served.store, "_read_payload", lambda key: reads.append(key) or real(key)
        )
        full = served.client.report(a["key"])
        assert reads == [a["key"]]
        assert full["key"] == a["key"] and full["report"] == a["report"]
        assert full["label"] == cell.label
        assert set(full) == {"key", "label", "elapsed_s", "created_at", "report"}

        del reads[:]
        diff = served.client.diff(a["key"], b["key"])
        assert reads == [a["key"], b["key"]]
        assert diff["a"] == {"key": a["key"], "label": cell.label}
        assert diff["identical"] is False

        del reads[:]
        for call in (
            lambda: served.client.report("f" * 64),
            lambda: served.client.diff(a["key"], "f" * 64),
        ):
            with pytest.raises(ServeError) as exc:
                call()
            assert exc.value.status == 404
            assert "no stored cell with key " + repr("f" * 64) in str(exc.value)
        assert reads == [a["key"]]  # an unknown key costs no payload read

    def test_unknown_report_key_is_404(self, served):
        with pytest.raises(ServeError) as exc:
            served.client.report("f" * 64)
        assert exc.value.status == 404

    def test_diff_requires_both_keys(self, served):
        with pytest.raises(ServeError) as exc:
            served.client._request("GET", "/v1/reports/diff?a=abc")
        assert exc.value.status == 400


class TestProject:
    def test_projection_points_round_trip(self, served):
        answer = served.client.project([64, 8], schemes=["RD"])
        assert answer["sizes"] == [8, 64]  # sorted
        points = answer["points"]["RD"]
        assert [p["n"] for p in points] == [8, 64]
        for p in points:
            assert set(p) == {
                "n", "system_mtbf_s", "t_res_ratio", "e_res_ratio",
                "power_ratio", "halted",
            }
            if not p["halted"]:
                assert p["t_res_ratio"] is not None

    @pytest.mark.parametrize(
        "payload",
        [
            {"sizes": []},
            {"sizes": [0]},
            {"sizes": ["eight"]},
            {"sizes": [8], "schemes": ["BOGUS"]},
            {"sizes": [8], "frobnicate": 1},
        ],
    )
    def test_invalid_projection_bodies_are_400(self, served, payload):
        with pytest.raises(ServeError) as exc:
            served.client._request("POST", "/v1/project", payload)
        assert exc.value.status == 400


class TestClient:
    def test_client_survives_a_dropped_keepalive(self, served):
        # a second client whose connection the server has never seen:
        # the first request on a fresh connection exercises connect;
        # closing our side forces the retry path on the next call
        with ServeClient(served.server.host, served.server.port) as client:
            assert client.health()["status"] == "ok"
            client._conn.close()
            assert client.health()["status"] == "ok"


class TestShutdown:
    """``BackgroundServer.stop()`` waits for the connection handlers it
    EOF'd and for nothing else."""

    def test_a_running_sampler_does_not_hold_shutdown(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            core = ServingCore(store, workers=1)
            app = ServeApp(core)
            server = BackgroundServer(app.handle)
            server.start()
            with ServeClient(server.host, server.port) as client:
                assert client.health()["status"] == "ok"  # starts the sampler
                assert not app._sampler_task.done()
                t0 = time.perf_counter()
                server.stop()  # the keep-alive connection is still open
            assert time.perf_counter() - t0 < 1.0
            assert app._sampler_task.cancelled()
            core.close()

    def test_a_handler_that_outlives_the_grace_period_is_an_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(http, "SHUTDOWN_GRACE_S", 0.05)
        entered = threading.Event()

        async def never_answers(request):
            entered.set()
            await asyncio.Event().wait()

        server = BackgroundServer(never_answers)
        server.start()
        with socket.create_connection((server.host, server.port)) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert entered.wait(timeout=5.0)
            with pytest.raises(RuntimeError, match="1 connection handler"):
                server.stop()
