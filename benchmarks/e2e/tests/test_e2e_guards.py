"""A wrong answer must be counted as a failed operation."""

import copy
import dataclasses

import pytest

import guards
import workloads
from repro.campaign import CampaignCell, CellResult
from repro.harness.experiment import Experiment, ExperimentConfig

CONFIG = ExperimentConfig(matrix="stencil5", scale=0.25, nranks=8, n_faults=2)


@pytest.fixture(scope="module")
def reports():
    experiment = Experiment(CONFIG)
    return {scheme: experiment.run(scheme) for scheme in ("FF", "LI", "ESR")}


def test_good_reports_pass(reports):
    ff = reports["FF"].iterations
    for scheme, report in reports.items():
        assert guards.report_problem(
            report, scheme=scheme, tol=CONFIG.tol, ff_iterations=ff
        ) is None


def test_report_invariants_catch_each_kind_of_wrong(reports):
    ff = reports["FF"].iterations
    li = reports["LI"]
    bad = {
        "missing": None,
        "other scheme": dataclasses.replace(li, scheme="RD"),
        "not converged": dataclasses.replace(li, converged=False),
        "residual": dataclasses.replace(li, final_relative_residual=1e-3),
        "nan residual": dataclasses.replace(li, final_relative_residual=float("nan")),
    }
    for what, report in bad.items():
        assert guards.report_problem(report, scheme="LI", tol=CONFIG.tol), what
    esr = dataclasses.replace(reports["ESR"], iterations=ff + 1)
    assert "iterations" in guards.report_problem(
        esr, scheme="ESR", tol=CONFIG.tol, ff_iterations=ff
    )


def test_cell_result_from_the_wrong_tier_is_a_failure(reports):
    cell = CampaignCell(CONFIG, "LI")
    ran = CellResult(cell, "ran", report=reports["LI"])
    assert guards.cell_result_problem(ran, status="ran") is None
    assert "status" in guards.cell_result_problem(ran, status="cached")
    failed = CellResult(cell, "failed", error="boom")
    assert "boom" in guards.cell_result_problem(failed, status="ran")


def test_reply_guard(reports):
    request = workloads.Request(
        {"matrix": "stencil5", "scale": 0.25, "nranks": 8, "n_faults": 2,
         "engine": "sim", "scheme": "LI"}
    )
    expected = guards.wire_form(reports["LI"])
    good = {"key": request.key, "cache": "lru", "report": copy.deepcopy(expected)}
    check = dict(tier="lru", key=request.key, scheme="LI", expected=expected)
    assert guards.reply_problem(good, **check) is None
    assert guards.reply_problem({"error": "HTTP 500"}, **check) == "malformed reply"
    assert "store" in guards.reply_problem({**good, "cache": "store"}, **check)
    assert guards.reply_problem({**good, "key": "0" * 64}, **check)
    flipped = copy.deepcopy(good)
    flipped["report"]["time_s"] *= 1.0 + 1e-15  # one ulp
    assert flipped["report"]["time_s"] != expected["time_s"]
    assert "differs" in guards.reply_problem(flipped, **check)
    unconverged = copy.deepcopy(good)
    unconverged["report"]["converged"] = False
    assert guards.reply_problem(unconverged, **{**check, "expected": None})


def test_digest_ignores_order_and_host_time_but_not_statistics(reports):
    rows = [guards.digest_row(name, report) for name, report in reports.items()]
    wire = [guards.digest_row(n, guards.wire_form(r)) for n, r in reports.items()]
    assert guards.sim_digest(rows) == guards.sim_digest(list(reversed(wire)))
    changed = dataclasses.replace(reports["LI"], iterations=reports["LI"].iterations + 1)
    other = [guards.digest_row("LI", changed)] + rows[:1] + rows[2:]
    assert guards.sim_digest(other) != guards.sim_digest(rows)


def test_golden_mismatch_is_a_warning_not_an_error():
    assert "matches golden" in guards.golden_note(
        "sim_grid", __import__("json").loads(guards.GOLDEN_PATH.read_text())["sim_grid"]
    )
    assert guards.golden_note("sim_grid", "0" * 16).startswith("WARNING")
    assert "no golden" in guards.golden_note("serve_cold.seed77", "0" * 16)


# -- through the workloads ---------------------------------------------
def test_corrupted_campaign_report_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    workload = workloads.SimGrid(0, tmp_path, quick=True)
    workload.build()
    clean = workload.repetition()
    clean.check()
    workload.between()
    assert (clean.attempted, clean.failed) == (3, 0)

    real = workloads.run_campaign

    def corrupting(*args, **kwargs):
        result = real(*args, **kwargs)
        result.results[1].report.final_relative_residual = 1e-3
        return result

    monkeypatch.setattr(workloads, "run_campaign", corrupting)
    rep = workload.repetition()
    rep.check()
    assert rep.failed == 1 and "above tol" in workload.failures[0]


def test_changed_statistics_between_repetitions_fail_the_repetition(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    workload = workloads.SimGrid(0, tmp_path, quick=True)
    workload.build()
    workload.repetition().check()
    workload.between()
    real = workloads.run_campaign

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        result.results[0].report.time_s *= 2
        return result

    monkeypatch.setattr(workloads, "run_campaign", drifting)
    rep = workload.repetition()
    rep.check()
    assert rep.failed == rep.attempted


def test_corrupted_serve_reply_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    workload = workloads.ServeHot(0, tmp_path, quick=True)
    try:
        workload.build()
        clean = workload.repetition()
        clean.check()
        assert clean.failed == 0 and clean.attempted == 64

        client = workload.clients[0]
        real, sent = client.solve, []

        def corrupting(**fields):
            reply = real(**fields)
            sent.append(1)
            if len(sent) % 8 == 0:
                reply["report"]["iterations"] += 1
            return reply

        monkeypatch.setattr(client, "solve", corrupting)
        rep = workload.repetition()
        rep.check()
        assert rep.failed == len(sent) // 8 == 4
        assert "differs from a direct Experiment.run" in workload.failures[0]
    finally:
        workload.close()
