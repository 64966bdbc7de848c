"""A repeated /v1/solve body is parsed once.

``ServeApp`` keeps the cell each body parsed to, keyed by the body's
bytes and bounded by the core's ``cache_size``; only bodies that parsed
are kept, and none longer than ``MAX_LINE``.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import cell_key
from repro.serve import ServeApp, ServingCore
from repro.serve import app as app_module
from repro.serve.http import MAX_LINE, HttpRequest
from tests.serve.conftest import run

FIELDS = {
    "matrix": "wathen100",
    "nranks": 8,
    "n_faults": 2,
    "scale": 0.25,
    "engine": "analytic",
    "scheme": "LI",
    "seed": 2300,
}


def solve_request(body: bytes) -> HttpRequest:
    return HttpRequest("POST", "/v1/solve", {}, {}, body)


def body_of(fields: dict) -> bytes:
    return json.dumps(fields).encode()


@pytest.fixture
def parses(monkeypatch) -> list:
    """Every call the app makes to ``parse_solve_request``."""
    calls = []
    real = app_module.parse_solve_request

    def spy(payload, **kwargs):
        calls.append(payload)
        return real(payload, **kwargs)

    monkeypatch.setattr(app_module, "parse_solve_request", spy)
    return calls


def answer_all(bodies: list[bytes], *, cache_size: int = 256, sizes=None):
    """Answer each body in turn on one app; returns the responses and
    the app.  ``sizes`` (a list) receives the body map's length after
    each answer."""

    async def scenario(app):
        responses = []
        for body in bodies:
            responses.append(await app.handle(solve_request(body)))
            if sizes is not None:
                sizes.append(len(app._cells))
        return responses

    with ServingCore(None, cache_size=cache_size) as core:
        app = ServeApp(core)
        return run(scenario(app)), app


class TestRepeatedBodies:
    def test_twenty_identical_bodies_parse_once(self, parses):
        responses, _ = answer_all([body_of(FIELDS)] * 20)
        assert len(parses) == 1
        replies = [json.loads(r.body) for r in responses]
        assert [r["cache"] for r in replies] == ["computed"] + ["lru"] * 19
        for response, reply in zip(responses, replies):
            assert response.status == 200
            del reply["elapsed_s"], reply["cache"]
            assert reply == replies[0]
        # past the envelope, the bytes themselves are the same
        hot = [r.body[r.body.index(b'"report": '):] for r in responses]
        assert len(set(hot)) == 1
        ids = {r.headers["X-Repro-Request-Id"] for r in responses}
        assert len(ids) == 20  # each answer still carries its own id

    def test_the_same_cell_spelled_differently_parses_again(self, parses):
        respelled = (
            "{ " + ",  ".join(
                f'"{k}" :  {json.dumps(v)}' for k, v in reversed(FIELDS.items())
            ) + " }"
        ).encode()
        assert respelled != body_of(FIELDS)
        assert json.loads(respelled) == FIELDS
        responses, app = answer_all([body_of(FIELDS), respelled])
        assert len(parses) == 2
        first, second = (json.loads(r.body) for r in responses)
        assert second["cache"] == "lru"
        assert second["key"] == first["key"]
        assert second["label"] == first["label"]
        assert len(app._cells) == 2  # both spellings are kept

    def test_the_map_is_bounded_by_the_cache_size_and_evicts_lru(self, parses):
        a, b, c, d = (body_of({**FIELDS, "seed": 2310 + i}) for i in range(4))
        sizes: list[int] = []
        _, app = answer_all([a, b, a, c, a, d], cache_size=2, sizes=sizes)
        assert sizes == [1, 2, 2, 2, 2, 2]
        assert list(app._cells) == [a, d]  # b, then c, were least recent
        assert len(parses) == 4  # a was kept throughout

    def test_a_zero_cache_size_keeps_nothing(self, parses):
        sizes: list[int] = []
        answer_all([body_of(FIELDS)] * 3, cache_size=0, sizes=sizes)
        assert sizes == [0, 0, 0]
        assert len(parses) == 3

    @pytest.mark.parametrize(
        "body, n_parses",
        [
            (b"{not json", 0),  # fails in the decode, before the parse
            (body_of({**FIELDS, "scheme": "BOGUS"}), 3),
            (body_of({**FIELDS, "scheme": ["LI"]}), 3),
            (body_of({**FIELDS, "matrix": "nope"}), 3),
            (body_of({**FIELDS, "nranks": "eight"}), 3),
        ],
        ids=["bad-json", "unknown-scheme", "list-scheme", "unknown-matrix", "str-nranks"],
    )
    def test_a_rejected_body_is_parsed_every_time_and_never_kept(
        self, parses, body, n_parses
    ):
        responses, app = answer_all([body] * 3)
        assert [r.status for r in responses] == [400] * 3
        assert len(set(r.body for r in responses)) == 1
        assert len(parses) == n_parses
        assert not app._cells

    def test_a_body_over_max_line_is_never_kept(self, parses):
        body = body_of(FIELDS)
        padded = body[:-1] + b" " * (MAX_LINE + 1 - len(body)) + b"}"
        assert len(padded) == MAX_LINE + 1
        responses, app = answer_all([padded] * 3)
        assert [json.loads(r.body)["cache"] for r in responses] == [
            "computed", "lru", "lru"
        ]
        assert len(parses) == 3
        assert not app._cells

    def test_the_kept_cell_carries_its_key_and_label(self, parses):
        body = body_of(FIELDS)
        responses, app = answer_all([body, body])
        cell = app._cells[body]
        assert {"_key", "label"} <= set(cell.__dict__)
        reply = json.loads(responses[1].body)
        assert (reply["key"], reply["label"]) == (cell_key(cell), cell.label)
