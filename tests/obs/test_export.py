"""Tests for the telemetry codecs, trace-export payload lines and CSV."""

import json

import numpy as np
import pytest

from repro.campaign import CampaignCell
from repro.campaign.store import cell_key, load_payload_lines, payload_line
from repro.core.recovery import make_scheme
from repro.core.solver import ResilientSolver
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.experiment import ExperimentConfig
from repro.harness.tracing import FaultInjected, PhaseEntered, RecoveryApplied
from repro.matrices.generators import banded_spd
from repro.obs.export import (
    event_from_row,
    event_to_row,
    residual_power_csv,
    telemetry_from_dict,
    telemetry_to_dict,
)
from repro.obs.telemetry import Telemetry
from tests.conftest import quick_config


@pytest.fixture(scope="module")
def traced_report():
    """A traced two-fault F0 solve on a small banded system."""
    a = banded_spd(300, 7, dominance=5e-3, seed=1)
    b = a @ np.random.default_rng(1).standard_normal(300)
    return ResilientSolver(
        a,
        b,
        scheme=make_scheme("F0"),
        schedule=EvenlySpacedSchedule(n_faults=2),
        config=quick_config(nranks=8, trace=True),
    ).solve()


def make_telemetry() -> Telemetry:
    t = 0.0
    tel = Telemetry.for_solver(clock=lambda: t)
    tel.events.record(
        FaultInjected(iteration=3, sim_time_s=0.5, victim_rank=1)
    )
    tel.events.record(
        RecoveryApplied(iteration=3, sim_time_s=0.5, scheme="LI")
    )
    tel.events.record(
        PhaseEntered(iteration=3, sim_time_s=0.5, phase="extra", from_phase="solve")
    )
    with tel.spans.span("recovery.li", rank=1):
        pass
    tel.metrics.counter("solver.faults", fault_class="SNF").inc()
    tel.recovery_latency_histogram("LI").observe(0.0)
    return tel


class TestEventRows:
    def test_round_trip_preserves_type_and_fields(self):
        ev = FaultInjected(
            iteration=7, sim_time_s=1.5, victim_rank=2, scope="node", n_blocks_lost=4
        )
        clone = event_from_row(event_to_row(ev))
        assert clone == ev
        assert type(clone) is FaultInjected

    def test_unknown_kind_degrades_to_base(self):
        row = {"kind": "mystery", "iteration": 1, "sim_time_s": 0.0}
        ev = event_from_row(row)
        assert ev.iteration == 1


class TestTelemetryDict:
    def test_round_trip(self):
        tel = make_telemetry()
        data = telemetry_to_dict(tel)
        clone = telemetry_from_dict(json.loads(json.dumps(data)))
        assert telemetry_to_dict(clone) == data
        assert clone.timebase == "sim"
        assert clone.spans.timebase == "sim"
        assert len(clone.events) == 3
        assert clone.metrics.snapshot() == tel.metrics.snapshot()


class TestJsonl:
    """A trace export holds store payloads, one cell per line."""

    CELLS = (
        CampaignCell(ExperimentConfig(matrix="m", trace=True), "F0"),
        CampaignCell(ExperimentConfig(matrix="m", n_faults=0, trace=True), "F0"),
    )

    def write(self, path, report) -> str:
        text = "".join(payload_line(cell, report) + "\n" for cell in self.CELLS)
        path.write_text(text)
        return text

    def test_write_load_export_is_byte_identical(self, tmp_path, traced_report):
        path = tmp_path / "trace.jsonl"
        text = self.write(path, traced_report)
        loaded = load_payload_lines(path)
        assert [e.cell for e in loaded] == list(self.CELLS)
        again = "".join(payload_line(e.cell, e.report) + "\n" for e in loaded)
        assert again == text
        tel = loaded[0].report.details["telemetry"]
        assert telemetry_to_dict(tel) == telemetry_to_dict(
            traced_report.details["telemetry"]
        )

    def test_every_line_is_one_store_payload(self, tmp_path, traced_report):
        path = tmp_path / "trace.jsonl"
        self.write(path, traced_report)
        lines = path.read_text().splitlines()
        assert len(lines) == len(self.CELLS)
        for line, cell in zip(lines, self.CELLS):
            payload = json.loads(line)
            assert set(payload) == {"key", "cell", "report"}
            assert payload["key"] == cell_key(cell)
            assert payload["cell"]["scheme"] == cell.scheme
            assert payload["report"]["telemetry"] is not None

    def test_line_missing_a_payload_field_is_rejected(self, tmp_path, traced_report):
        path = tmp_path / "bad.jsonl"
        good = payload_line(self.CELLS[0], traced_report)
        payload = json.loads(good)
        del payload["report"]
        path.write_text(good + "\n" + json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="line 2 is not a result-store payload"):
            load_payload_lines(path)

    def test_unknown_stream_rejected(self, tmp_path):
        # every line of a pre-payload export is a "stream" record
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"stream":"cell","cell":"x","timebase":"sim"}\n'
            '{"stream":"metrics","cell":"x","snapshot":{}}\n'
        )
        with pytest.raises(ValueError) as exc:
            load_payload_lines(path)
        message = str(exc.value)
        assert "\n" not in message
        assert "line 1 is not a result-store payload" in message
        assert '{"key", "cell": {"config", "scheme"}, "report"}' in message


class TestResidualPowerCsv:
    @pytest.fixture()
    def report(self, traced_report):
        return traced_report

    def test_csv_covers_every_iteration(self, report):
        lines = residual_power_csv(report).strip().splitlines()
        assert lines[0] == "iteration,sim_time_s,relative_residual,power_w"
        assert len(lines) - 1 == report.iterations

    def test_csv_values_parse_and_match_history(self, report):
        lines = residual_power_csv(report).strip().splitlines()[1:]
        history = list(report.residual_history)
        times = []
        for line in lines:
            it, t, res, p = line.split(",")
            times.append(float(t))
            assert float(res) == history[int(it) - 1]
            assert float(p) > 0
        assert times == sorted(times)
