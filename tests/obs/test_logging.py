"""Structured logging: schema round-trip, handlers, levels, request ids."""

from __future__ import annotations

import json
import logging
import re
import time
from pathlib import Path

import pytest

from repro.obs import logging as repro_logging
from repro.obs.logging import (
    LOG_LEVELS,
    LOGGER_NAME,
    LogRecord,
    LogSchemaError,
    bound_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    handle_line,
    new_request_id,
    record_from_line,
    record_to_line,
    valid_request_id,
)
from tests.logcapture import captured_logs

GOLDEN = Path(__file__).parent / "golden" / "log_records.jsonl"

#: Records whose canonical serialization is pinned in the golden file,
#: in file order.  Changing the wire schema must change the golden file
#: consciously, never by accident.
GOLDEN_RECORDS = [
    LogRecord(
        ts=0.0,
        level="info",
        component="serve.http",
        msg="listening",
        fields=(("host", "127.0.0.1"), ("port", 8030)),
    ),
    LogRecord(
        ts=17.25,
        level="info",
        component="serve.app",
        msg="request",
        request_id="9f2c4ab0d1e88c3a",
        fields=(
            ("elapsed_ms", 1.25),
            ("endpoint", "/v1/solve"),
            ("method", "POST"),
            ("path", "/v1/solve"),
            ("status", 200),
        ),
    ),
    LogRecord(
        ts=3.5,
        level="debug",
        component="campaign.runner",
        msg="cell done",
        timebase="sim",
        fields=(
            ("cell", "wathen100/r8/f2/x0.25/LI"),
            ("elapsed_s", 0.5),
            ("status", "ran"),
        ),
    ),
    LogRecord(
        ts=100.0,
        level="error",
        component="serve.core",
        msg="solve failed",
        fields=(
            ("converged", False),
            ("error", "ValueError: boom"),
            ("key", "abc123"),
        ),
    ),
]


@pytest.fixture(autouse=True)
def _default_logging():
    yield
    configure_logging(level="warning")


class TestWireFormat:
    def test_round_trip_is_exact(self):
        for record in GOLDEN_RECORDS:
            line = record_to_line(record)
            back = record_from_line(line)
            assert back == record
            assert record_to_line(back) == line

    def test_golden_file_parses_and_reserializes_byte_identically(self):
        lines = GOLDEN.read_text().splitlines()
        assert len(lines) == len(GOLDEN_RECORDS)
        for line, record in zip(lines, GOLDEN_RECORDS):
            assert record_to_line(record) == line
            assert record_from_line(line) == record

    def test_request_id_omitted_when_absent(self):
        line = record_to_line(GOLDEN_RECORDS[0])
        assert "request_id" not in line
        assert record_from_line(line).request_id is None

    def test_field_order_does_not_change_the_line(self):
        a = LogRecord(
            ts=1.0, level="info", component="c", msg="m",
            fields=(("a", 1), ("b", 2)),
        )
        b = LogRecord(
            ts=1.0, level="info", component="c", msg="m",
            fields=(("b", 2), ("a", 1)),
        )
        assert record_to_line(a) == record_to_line(b)

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"level":"info"}',  # missing keys
            '{"component":"c","fields":{},"level":"loud","msg":"m",'
            '"timebase":"wall","ts":1.0}',  # unknown level
            '{"component":"c","fields":{},"level":"info","msg":"m",'
            '"timebase":"wall","ts":true}',  # bool ts
            '{"component":"c","fields":[],"level":"info","msg":"m",'
            '"timebase":"wall","ts":1.0}',  # fields not an object
            '{"component":"c","extra":1,"fields":{},"level":"info",'
            '"msg":"m","timebase":"wall","ts":1.0}',  # unknown key
            '{"component":"c","fields":{},"level":"info","msg":"m",'
            '"request_id":7,"timebase":"wall","ts":1.0}',  # non-str id
        ],
    )
    def test_malformed_lines_raise_schema_errors(self, line):
        with pytest.raises(LogSchemaError):
            record_from_line(line)


class TestRequestIds:
    def test_new_ids_are_16_hex_and_valid(self):
        rid = new_request_id()
        assert len(rid) == 16
        assert valid_request_id(rid) == rid

    @pytest.mark.parametrize("raw", ["abc-123.X_y", "a", "A" * 64])
    def test_safe_inbound_ids_pass(self, raw):
        assert valid_request_id(raw) == raw

    @pytest.mark.parametrize(
        "raw", [None, "", "has space", "a" * 65, 'quote"', "new\nline"]
    )
    def test_hostile_inbound_ids_rejected(self, raw):
        assert valid_request_id(raw) is None

    def test_bound_id_is_stamped_and_restored(self):
        log = get_logger("test")
        assert current_request_id() is None
        with captured_logs() as logs:
            with bound_request_id("rid-one"):
                assert current_request_id() == "rid-one"
                log.info("inside")
            log.info("outside")
        records = logs.records()
        assert records[0].request_id == "rid-one"
        assert records[1].request_id is None

    def test_a_forwarded_line_keeps_its_own_id(self):
        """A worker's line re-emitted in another context: the filter
        leaves the id the record was made with, absent or not."""
        with_id = (
            '{"component":"campaign.worker","fields":{"attempt":1},'
            '"level":"debug","msg":"cell computed",'
            '"request_id":"runrunrunrunrunr.cellcellcellcell",'
            '"timebase":"wall","ts":1700000000.125}'
        )
        without_id = with_id.replace(
            '"request_id":"runrunrunrunrunr.cellcellcellcell",', ""
        )
        with captured_logs() as logs, bound_request_id("parent-rid"):
            handle_line(with_id)
            handle_line(without_id)
        assert logs.lines == [with_id, without_id]

    def test_a_non_conformant_forwarded_line_is_refused(self):
        with captured_logs() as logs:
            with pytest.raises(LogSchemaError):
                handle_line('{"msg":"hello"}')
        assert logs.lines == []


class TestLevelsAndSinks:
    """Thresholds, and the handlers lines go to."""

    def test_suppressed_levels_emit_nothing(self):
        log = get_logger("test")
        with captured_logs("warning") as logs:
            log.debug("quiet")
            log.info("quiet")
            log.warning("loud")
            log.error("loud")
            log.log("info", "quiet")
            log.log("error", "loud")
        assert [r.level for r in logs.records()] == ["warning", "error", "error"]

    def test_level_order_matches_severity(self):
        assert LOG_LEVELS == ("debug", "info", "warning", "error")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            get_logger("test").log("loud", "msg")
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_the_real_logger_writes_the_golden_line(self):
        """Golden line 2 made by the logger the serving tier uses: the
        same bytes but for ``ts``, which is the wall clock."""
        golden = GOLDEN.read_text().splitlines()[1]
        with captured_logs("info") as logs:
            with bound_request_id("9f2c4ab0d1e88c3a"):
                t0 = time.time()
                get_logger("serve.app").log(
                    "info", "request", method="POST", path="/v1/solve",
                    endpoint="/v1/solve", status=200, elapsed_ms=1.25,
                )
                t1 = time.time()
        (line,) = logs.lines
        assert t0 <= json.loads(line)["ts"] <= t1
        assert re.sub(r'"ts":[^,}]+', '"ts":17.25', line) == golden

    def test_default_is_warning_and_up_on_the_current_stderr(self, capsys):
        log = get_logger("test")
        log.info("quiet")
        log.warning("loud", n=1)
        err = capsys.readouterr().err.splitlines()
        assert [record_from_line(line).msg for line in err] == ["loud"]

    def test_other_libraries_records_never_become_repro_lines(self):
        caught = []
        root_handler = logging.Handler()
        root_handler.emit = caught.append
        logging.getLogger().addHandler(root_handler)
        try:
            with captured_logs() as logs:
                logging.getLogger("asyncio").error("not ours")
                get_logger("test").error("ours")
        finally:
            logging.getLogger().removeHandler(root_handler)
        assert [r.msg for r in logs.records()] == ["ours"]
        # and repro records stay off the root logger's handlers
        assert [r.getMessage() for r in caught] == ["not ours"]
        assert logging.getLogger(LOGGER_NAME).propagate is False

    def test_rotating_file_sink_rotates_and_every_line_parses(
        self, tmp_path, monkeypatch
    ):
        assert (repro_logging.MAX_BYTES, repro_logging.BACKUPS) == (4 << 20, 3)
        monkeypatch.setattr(repro_logging, "MAX_BYTES", 400)
        monkeypatch.setattr(repro_logging, "BACKUPS", 2)
        path = tmp_path / "logs" / "app.log"
        configure_logging(level="debug", file=path)
        log = get_logger("test")
        for i in range(40):
            log.info("fill", i=i, pad="x" * 40)
        configure_logging(level="warning")  # closes the file
        files = sorted(p.name for p in path.parent.iterdir())
        assert files == ["app.log", "app.log.1", "app.log.2"]  # backups cap
        total = 0
        for p in path.parent.iterdir():
            for line in p.read_text().splitlines():
                record_from_line(line)  # every surviving line conformant
                total += 1
        assert 0 < total < 40  # oldest lines were dropped by rotation
