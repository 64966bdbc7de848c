"""End-to-end API tests: a real server, a real client, real solves.

One BackgroundServer per module (ephemeral port, tmp store); the
acceptance test at the bottom pins the ISSUE guarantee that a served
report is bit-identical JSON to a direct engine call.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import select
import socket
import struct
import threading
import time

import pytest

from repro.campaign import store as store_module
from repro.campaign.serialize import report_to_dict
from repro.campaign.store import ResultStore, cell_key
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.serve import (
    BackgroundServer,
    ServeApp,
    ServeClient,
    ServeError,
    ServingCore,
    http,
)
from repro.serve.app import _CONFIG_FIELDS as SOLVE_FIELDS, parse_solve_request
from repro.serve.http import MAX_BODY, MAX_HEADERS, MAX_LINE
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
        # /slo and /metrics/history were routes once; they must stay gone
        for path in ("/nope", "/slo", "/metrics/history"):
            with pytest.raises(ServeError) as exc:
                served.client._request("GET", path)
            assert exc.value.status == 404, path

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


#: For every field a solve body may set, a JSON value of a type it must
#: refuse; a new field fails TestConfigFieldTypes until it has a row.
WRONG_JSON_TYPE = {
    "matrix": 7,
    "nranks": "16",
    "n_faults": 1.5,
    "tol": "1e-8",
    "seed": True,
    "scale": None,
    "cr_interval": 0.5,
    "construct_tol": "1e-6",
    "max_iters": 2.0,
    "trace": 1,
    "engine": 1,
    "fault_scope": None,
    "victims_per_fault": "1",
    "preconditioner": 1,
}

CONFIG_FIELDS = [
    pytest.param(field, id=field.name)
    for field in dataclasses.fields(ExperimentConfig)
    if field.name in SOLVE_FIELDS
]


class TestConfigFieldTypes:
    """/v1/solve accepts ExperimentConfig's fields but ``backend``, each
    with the JSON types its annotation names."""

    def test_every_field_but_backend_is_accepted(self):
        every = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert set(SOLVE_FIELDS) == every - {"backend"}

    @pytest.mark.parametrize("field", CONFIG_FIELDS)
    def test_default_is_accepted(self, field):
        cell = parse_solve_request({field.name: field.default})
        assert getattr(cell.config, field.name) == field.default

    @pytest.mark.parametrize("field", CONFIG_FIELDS)
    def test_wrong_json_type_is_400(self, served, field):
        body = dict(SOLVE, scheme="RD")
        body[field.name] = WRONG_JSON_TYPE[field.name]
        with pytest.raises(ServeError) as exc:
            served.client.solve(**body)
        assert exc.value.status == 400
        assert f"field {field.name!r} must be" in exc.value.message


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

    def test_a_named_backend_is_an_unknown_field(self, served):
        # a solve runs the one production backend; the loop reference is
        # the tests' oracle, and no body may pick it, or name the default
        for backend in ("loop", "batched"):
            with pytest.raises(ServeError) as exc:
                served.client.solve(**SOLVE, scheme="RD", backend=backend)
            assert exc.value.status == 400
            assert exc.value.message.startswith("unknown fields: backend;")
            assert "backend" not in exc.value.message.split("accepted:")[1]

    def test_unknown_backend_is_400(self, served):
        with pytest.raises(ServeError) as exc:
            served.client.solve(**SOLVE, scheme="RD", backend="gpu")
        assert exc.value.status == 400
        assert exc.value.message.startswith("unknown fields: backend;")

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
            ({"scheme": ["LI"]}, "field 'scheme' must be str"),
            ({"scheme": {"a": 1}}, "field 'scheme' must be str"),
            ({"scheme": "RD", "matrix": "nope"}, "unknown matrix 'nope'"),
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
        """A by-key lookup is one index row, its payload inside, and one
        decode, however many cells the store holds (they used to decode
        every payload)."""
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

        probes, reads = [], []
        real, decode = served.store._row, store_module._decode
        monkeypatch.setattr(
            served.store, "_row", lambda key: probes.append(key) or real(key)
        )
        monkeypatch.setattr(
            store_module,
            "_decode",
            lambda key, blob: reads.append(key) or decode(key, blob),
        )
        full = served.client.report(a["key"])
        assert probes == reads == [a["key"]]
        assert full["key"] == a["key"] and full["report"] == a["report"]
        assert full["label"] == cell.label
        assert set(full) == {"key", "label", "elapsed_s", "created_at", "report"}

        del probes[:], reads[:]
        diff = served.client.diff(a["key"], b["key"])
        assert probes == reads == [a["key"], b["key"]]
        assert diff["a"] == {"key": a["key"], "label": cell.label}
        assert diff["identical"] is False

        del probes[:], reads[:]
        for call in (
            lambda: served.client.report("f" * 64),
            lambda: served.client.diff(a["key"], "f" * 64),
        ):
            with pytest.raises(ServeError) as exc:
                call()
            assert exc.value.status == 404
            assert "no stored cell with key " + repr("f" * 64) in str(exc.value)
        assert probes == ["f" * 64, a["key"], "f" * 64]
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
            {"sizes": [8], "schemes": 5},
            {"sizes": [8], "schemes": [["x"]]},
            {"sizes": [True]},
        ],
    )
    def test_invalid_projection_bodies_are_400(self, served, payload):
        with pytest.raises(ServeError) as exc:
            served.client._request("POST", "/v1/project", payload)
        assert exc.value.status == 400


def _head(*, length: int) -> str:
    return (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}"
    )


def _answer(
    body: bytes = b'{"status": "ok"}', *, head: str | None = None, close=False
) -> bytes:
    """One well-formed answer, or ``head`` (without its blank line) in
    front of ``body`` instead of the usual status line and headers."""
    if head is None:
        head = (
            f"{_head(length=len(body))}\r\nX-Repro-Request-Id: fake-1\r\n"
            f"Connection: {'close' if close else 'keep-alive'}"
        )
    return head.encode("latin-1") + b"\r\n\r\n" + body


class _FakeServer:
    """A raw-socket server that reads one request at a time and answers
    it with the next action of ``script``: ``("send", bytes)`` writes
    the bytes, ``("trickle", bytes)`` writes them a byte at a time,
    ``("hang_up", None)`` closes the connection unanswered.  ``"send"``
    and ``"trickle"`` also hang up when the answer says
    ``Connection: close``."""

    def __init__(self, *script: tuple[str, bytes | None]) -> None:
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.connections = 0
        self.requests: list[bytes] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @staticmethod
    def _read_request(conn: socket.socket) -> bytes:
        data = b""

        def more() -> bytes:
            chunk = conn.recv(65536)
            if not chunk:
                raise ConnectionError("the client hung up mid-request")
            return chunk

        while b"\r\n\r\n" not in data:
            data += more()
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        while len(body) < length:
            body += more()
        return head + b"\r\n\r\n" + body

    def _serve(self) -> None:
        conn = None
        for action, data in self.script:
            if conn is None:
                conn, _ = self.listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connections += 1
            self.requests.append(self._read_request(conn))
            if action == "send":
                conn.sendall(data)
            elif action == "trickle":
                for i in range(len(data)):
                    conn.sendall(data[i : i + 1])
                    time.sleep(0.001)
            if action == "hang_up" or b"Connection: close" in data:
                conn.close()
                conn = None
        if conn is not None:
            conn.close()

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=10.0)

    def close(self) -> None:
        """Wait for the script to run out; every action in it must have
        been asked for."""
        self._thread.join(timeout=10.0)
        self.listener.close()
        assert not self._thread.is_alive(), "the client left the script unfinished"


@pytest.fixture
def fake():
    servers: list[_FakeServer] = []

    def make(*script) -> _FakeServer:
        servers.append(_FakeServer(*script))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def _spy(monkeypatch, name: str, sock_of) -> list[bytes]:
    """Record what ``socket.socket.<name>`` moves for the socket
    ``sock_of()`` (the client's), calling through for every socket."""
    calls: list[bytes] = []
    real = getattr(socket.socket, name)

    def spy(sock, *args):
        out = real(sock, *args)
        if sock is sock_of():
            calls.append(args[0] if name == "sendall" else out)
        return out

    monkeypatch.setattr(socket.socket, name, spy)
    return calls


class TestClient:
    def test_client_survives_a_dropped_keepalive(self, served):
        # a second client whose connection the server has never seen:
        # the first request on a fresh connection exercises connect;
        # closing our side forces the retry path on the next call
        with ServeClient(served.server.host, served.server.port) as client:
            assert client.health()["status"] == "ok"
            client._sock.close()
            assert client.health()["status"] == "ok"

    def test_each_solve_is_one_sendall(self, served, monkeypatch):
        with ServeClient(served.server.host, served.server.port) as client:
            client.health()
            sent = _spy(monkeypatch, "sendall", lambda: client._sock)
            for seed in (2000, 2001, 2000):
                answer = client.solve(
                    **SOLVE, scheme="F0", seed=seed, request_id=f"one-{seed}"
                )
                assert answer["report"]["scheme"] == "F0"
        assert len(sent) == 3
        for request, seed in zip(sent, (2000, 2001, 2000)):
            head, _, body = request.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0] == "POST /v1/solve HTTP/1.1"
            assert f"Content-Length: {len(body)}" in lines
            assert "Content-Type: application/json" in lines
            assert f"X-Repro-Request-Id: one-{seed}" in lines
            assert json.loads(body)["seed"] == seed

    def test_an_answer_split_across_many_recvs_parses(self, fake, monkeypatch):
        body = json.dumps({"status": "ok", "pad": "x" * 40}).encode()
        server = fake(("trickle", _answer(body)))
        with server.client() as client:
            received = _spy(monkeypatch, "recv", lambda: client._sock)
            assert client.health() == json.loads(body)
            assert client.last_request_id == "fake-1"
        assert len(received) > 10
        assert server.connections == 1

    def test_a_connection_close_answer_makes_the_next_call_reconnect(self, fake):
        server = fake(("send", _answer(close=True)), ("send", _answer()))
        with server.client() as client:
            assert client.health()["status"] == "ok"
            assert client._sock is None
            assert client.health()["status"] == "ok"
            assert client._sock is not None
        assert server.connections == 2
        assert len(server.requests) == 2

    def test_eof_before_the_status_line_is_retried_once(self, fake):
        server = fake(("hang_up", None), ("send", _answer()))
        with server.client() as client:
            assert client.health()["status"] == "ok"
        assert server.connections == 2
        assert server.requests[0] == server.requests[1]

        # a third request would wait on a server with nothing left to
        # say, and time out rather than raise this
        server = fake(("hang_up", None), ("hang_up", None))
        with server.client() as client:
            with pytest.raises(ConnectionError, match="unanswered"):
                client.health()
        assert len(server.requests) == 2

    def test_eof_mid_body_raises_without_a_retry(self, fake):
        cut = _head(length=40) + "\r\nConnection: close"
        server = fake(("send", _answer(b'{"status"', head=cut)))
        with server.client() as client:
            with pytest.raises(ConnectionError, match="9 of 40 body bytes"):
                client.health()
            assert client._sock is None
        assert server.connections == 1
        assert len(server.requests) == 1

    @pytest.mark.parametrize(
        "answer, error",
        [
            pytest.param(
                _answer(head="HTTP/1.1 200 OK\r\nContent-Type: application/json"),
                "no valid Content-Length",
                id="no-content-length",
            ),
            pytest.param(
                _answer(head=_head(length=2) + "\r\nTransfer-Encoding: chunked"),
                "Transfer-Encoding",
                id="transfer-encoding",
            ),
            pytest.param(
                _answer(head=_head(length=-1)),
                "negative Content-Length",
                id="negative-length",
            ),
            pytest.param(
                _answer(head="HTTP/1.1 OK\r\nContent-Length: 2"),
                "status line",
                id="no-status-code",
            ),
            pytest.param(
                _answer(head="ICY 200 OK\r\nContent-Length: 2"),
                "status line",
                id="not-http",
            ),
            pytest.param(
                _answer(head=_head(length=2) + "\r\nno colon here"),
                "answer header",
                id="malformed-header",
            ),
            pytest.param(
                _answer(head=_head(length=2) + "\r\nX-Big: " + "a" * MAX_LINE),
                "line over the size limit",
                id="long-header-line",
            ),
            pytest.param(
                _answer(head=_head(length=2) + "\r\nX-A: 1" * (MAX_HEADERS + 1)),
                "too many answer headers",
                id="too-many-headers",
            ),
            pytest.param(
                _answer() + b"HTTP/1.1 200 OK",
                "bytes after the answer body",
                id="bytes-after-body",
            ),
        ],
    )
    def test_a_malformed_answer_raises_and_closes(self, fake, answer, error):
        server = fake(("send", answer))
        with server.client() as client:
            with pytest.raises(ConnectionError, match=error):
                client.health()
            assert client._sock is None
        assert len(server.requests) == 1


def _split_responses(data: bytes) -> list[tuple[str, dict[str, str], bytes]]:
    """(status line, lower-cased headers, body) of each response in a
    byte stream, framed by Content-Length."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(headers["content-length"])
        responses.append((status, headers, rest[:length]))
        data = rest[length:]
    return responses


def _request(
    method: str, path: str, request_id: str, body: bytes = b"", *, close: bool = False
) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"X-Repro-Request-Id: {request_id}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode() + body


def _count_5xx(served) -> int:
    from repro.obs.metrics import counter_by_label

    by_status = counter_by_label(
        served.core.metrics.snapshot(), "serve_requests", "status"
    )
    return sum(n for status, n in by_status.items() if status.startswith("5"))


class TestMisbehavingClients:
    """Chaos at the socket: the server answers what it was asked, in
    order, and one rude client costs nobody else anything."""

    def test_pipelined_requests_are_answered_in_order(self, served):
        solve = json.dumps({**SOLVE, "scheme": "F0", "seed": 1700}).encode()
        segment = (
            _request("GET", "/healthz", "pipe-1")
            + _request("POST", "/v1/solve", "pipe-2", solve)
            + _request("GET", "/nope", "pipe-3")
            + _request("POST", "/v1/solve", "pipe-4", solve, close=True)
        )
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=30.0
        ) as raw:
            raw.sendall(segment)  # all four in one write
            answers = _split_responses(_recv_response(raw))
        assert [h["x-repro-request-id"] for _, h, _ in answers] == [
            "pipe-1",
            "pipe-2",
            "pipe-3",
            "pipe-4",
        ]
        assert [status.split(" ")[1] for status, _, _ in answers] == [
            "200",
            "200",
            "404",
            "200",
        ]
        assert json.loads(answers[0][2])["status"] == "ok"
        first, again = json.loads(answers[1][2]), json.loads(answers[3][2])
        assert first["cache"] in ("computed", "store")
        assert again["cache"] == "lru"
        assert first["report"] == again["report"]
        assert [h["connection"] for _, h, _ in answers] == ["keep-alive"] * 3 + [
            "close"
        ]

    def test_a_client_gone_mid_response_does_not_stop_the_server(self, served):
        errors_before = _count_5xx(served)
        traced = json.dumps(
            {**SOLVE, "engine": "sim", "trace": True, "scheme": "RD", "seed": 1800}
        ).encode()
        raw = socket.create_connection(
            (served.server.host, served.server.port), timeout=30.0
        )
        # two big replies queued, a few bytes read, then a reset
        raw.sendall(
            _request("POST", "/v1/solve", "rude-1", traced)
            + _request("POST", "/v1/solve", "rude-2", traced)
        )
        assert raw.recv(64).startswith(b"HTTP/1.1 200 ")
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()
        with ServeClient(served.server.host, served.server.port) as client:
            assert client.health()["status"] == "ok"
            answer = client.solve(**SOLVE, scheme="F0", seed=1900)
        assert answer["cache"] in ("computed", "store")
        assert _count_5xx(served) == errors_before


class TestHeadLimits:
    """A request head past ``MAX_LINE`` or ``MAX_HEADERS``, or cut off
    by EOF, is answered 400 with ``Connection: close``, then EOF."""

    @pytest.mark.parametrize(
        "head",
        [
            pytest.param(
                f"GET /{'a' * (MAX_LINE + 1 - 16)} HTTP/1.1\r\n\r\n",
                id="request-line-one-over",
            ),
            pytest.param(
                f"GET /{'a' * (MAX_LINE + 500)} HTTP/1.1\r\n\r\n",
                id="request-line-far-over",
            ),
            pytest.param(
                f"GET /healthz HTTP/1.1\r\nX-Big: {'a' * (MAX_LINE + 1 - 9)}\r\n\r\n",
                id="header-line-one-over",
            ),
            pytest.param(
                f"GET /healthz HTTP/1.1\r\nX-Big: {'a' * (MAX_LINE + 500)}\r\n\r\n",
                id="header-line-far-over",
            ),
            pytest.param(
                "GET /healthz HTTP/1.1\r\n"
                + "".join(f"X-H{i}: 1\r\n" for i in range(MAX_HEADERS + 1))
                + "\r\n",
                id="too-many-headers",
            ),
            pytest.param(
                "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Cut", id="headers-cut-by-eof"
            ),
        ],
    )
    def test_is_a_400_then_eof(self, served, head):
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=30.0
        ) as raw:
            raw.sendall(head.encode("latin-1"))
            raw.shutdown(socket.SHUT_WR)  # EOF, for the cut-off head
            answer = _recv_response(raw)  # returns at EOF
        ((status, headers, body),) = _split_responses(answer)
        assert status.startswith("HTTP/1.1 400 ")
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]

    def test_late_bytes_after_the_400_meet_no_reset(self, served):
        """After an error answer the server half-closes and reads on for
        ``LINGER_S``: a client still sending is not reset, and a reset
        could reach a client before it has read the answer."""
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=30.0
        ) as raw:
            raw.sendall(b"NOT HTTP\r\n")
            answer = _recv_response(raw)  # the server's half-close
            for _ in range(2):  # after a reset the second send fails
                raw.sendall(b"late")
                time.sleep(0.1)
        ((status, headers, _),) = _split_responses(answer)
        assert status.startswith("HTTP/1.1 400 ")
        assert headers["connection"] == "close"

    def test_the_limits_hold_at_the_edge(self, served):
        # a request line and a header line of exactly MAX_LINE bytes,
        # CRLF included, and exactly MAX_HEADERS headers are served
        path = "/healthz?" + "a" * (MAX_LINE - len("GET /healthz? HTTP/1.1\r\n"))
        headers = [f"X-H{i:02d}: 1" for i in range(MAX_HEADERS - 2)]
        headers.append("X-Big: " + "a" * (MAX_LINE - len("X-Big: \r\n")))
        head = "\r\n".join([f"GET {path} HTTP/1.1", *headers, "Connection: close"])
        assert len(f"GET {path} HTTP/1.1\r\n") == MAX_LINE
        with socket.create_connection(
            (served.server.host, served.server.port), timeout=30.0
        ) as raw:
            raw.sendall(head.encode("latin-1") + b"\r\n\r\n")
            ((status, _, body),) = _split_responses(_recv_response(raw))
        assert status.startswith("HTTP/1.1 200 ")
        assert json.loads(body)["status"] == "ok"


class TestSlowClients:
    """``REQUEST_DEADLINE_S`` bounds how long one request may take to
    arrive, however steadily its bytes trickle in."""

    DEADLINE_S = 0.3

    @pytest.fixture
    def quick(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", self.DEADLINE_S)
        core = ServingCore(None)
        server = BackgroundServer(ServeApp(core).handle)
        server.start()
        yield server
        server.stop()
        core.close()

    def test_a_trickled_request_gets_a_408_then_eof(self, quick):
        with socket.create_connection((quick.host, quick.port), timeout=10.0) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
            t0 = time.perf_counter()
            # one header byte every 50 ms, until the server speaks
            while not select.select([raw], [], [], 0.05)[0]:
                assert time.perf_counter() - t0 < 10.0
                raw.sendall(b"a")
            answer = _recv_response(raw)  # returns at EOF
        assert time.perf_counter() - t0 >= self.DEADLINE_S * 0.9
        ((status, headers, body),) = _split_responses(answer)
        assert status.startswith("HTTP/1.1 408 ")
        assert headers["connection"] == "close"
        assert "within" in json.loads(body)["error"]

    def test_an_idle_keep_alive_connection_is_closed_without_a_byte(self, quick):
        with ServeClient(quick.host, quick.port) as client:
            assert client.health()["status"] == "ok"
            idle = client._sock
            idle.settimeout(10.0)
            t0 = time.perf_counter()
            assert idle.recv(4096) == b""  # EOF, nothing written first
            assert time.perf_counter() - t0 >= self.DEADLINE_S * 0.9
            # the client retries once on a dropped keep-alive
            assert client.health()["status"] == "ok"


class TestShutdown:
    """``BackgroundServer.stop()`` waits for the connection handlers it
    EOF'd and for nothing else."""

    def test_an_open_keep_alive_connection_does_not_hold_shutdown(
        self, tmp_path
    ):
        with ResultStore(tmp_path / "store") as store:
            core = ServingCore(store, workers=1)
            app = ServeApp(core)
            server = BackgroundServer(app.handle)
            server.start()
            with ServeClient(server.host, server.port) as client:
                assert client.health()["status"] == "ok"
                t0 = time.perf_counter()
                server.stop()  # the keep-alive connection is still open
            assert time.perf_counter() - t0 < 1.0
            core.close()

    def test_a_handler_that_outlives_the_grace_period_is_an_error(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(http, "SHUTDOWN_GRACE_S", 0.05)
        caplog.set_level(logging.DEBUG, logger="asyncio")
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
        # cancelling the stuck handler is the server's doing, not an
        # error asyncio should report
        assert not [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]
