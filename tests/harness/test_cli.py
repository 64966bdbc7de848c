"""Tests for the command-line interface."""

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
from html import unescape
from pathlib import Path

import pytest

from repro.cli import _build_parser, _parse_cr_interval, main
from repro.core.recovery import scheme_names
from repro.engines import engine_names
from repro.matrices import suite


class TestCli:
    def test_mtbf(self, capsys):
        assert main(["mtbf"]) == 0
        out = capsys.readouterr().out
        assert "petascale" in out
        assert "SNF" in out

    def test_project(self, capsys):
        assert main(["project", "--sizes", "192", "12288", "400000"]) == 0
        out = capsys.readouterr().out
        assert "CR-D" in out
        assert "HALT" in out  # 400k procs is past the halt point

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--matrix",
                "wathen100",
                "--scheme",
                "F0",
                "--faults",
                "2",
                "--ranks",
                "8",
                "--scale",
                "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free:" in out
        assert "normalized:" in out

    def test_run_preconditioned(self, capsys):
        code = main(
            [
                "run",
                "--matrix",
                "msc01050",
                "--scheme",
                "LI",
                "--faults",
                "2",
                "--ranks",
                "8",
                "--scale",
                "0.5",
                "--precond",
                "jacobi",
            ]
        )
        assert code == 0

    def test_suite_small(self, capsys):
        code = main(
            [
                "suite",
                "--matrices",
                "wathen100",
                "--schemes",
                "RD",
                "F0",
                "--faults",
                "2",
                "--ranks",
                "8",
                "--scale",
                "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wathen100" in out

    def test_suite_is_one_campaign_without_a_store(self, capsys, monkeypatch):
        from repro import cli
        from repro.campaign import run_campaign

        calls = []

        def spy(spec, **options):
            result = run_campaign(spec, **options)
            calls.append((options, result))
            return result

        monkeypatch.setattr(cli, "run_campaign", spy)
        code = main(
            [
                "suite", "--matrices", "Kuu", "--schemes", "RD", "F0",
                "--ranks", "4", "--faults", "2", "--scale", "0.3",
            ]
        )
        assert code == 0
        [(options, result)] = calls
        assert options == {"store": None}
        [(config, reports)] = result.groups()
        assert config.matrix == "Kuu" and config.nranks == 4
        assert list(reports) == ["FF", "RD", "F0"]
        assert reports["FF"].converged
        assert "Kuu" in capsys.readouterr().out

    def test_suite_failed_cell_prints_its_error_and_exits_1(self, capsys):
        code = main(
            [
                "suite", "--matrices", "wathen100", "--schemes", "RD",
                "--ranks", "64", "--faults", "2", "--scale", "0.01",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "wathen100/r64/f2/x0.01/FF: ValueError" in captured.err
        assert "Traceback" not in captured.err
        assert "normalized iterations" not in captured.out

    def test_run_with_seed(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "RD",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--seed", "3",
            ]
        )
        assert code == 0

    def test_suite_seed_and_cr_interval(self, capsys):
        code = main(
            [
                "suite", "--matrices", "wathen100", "--schemes", "CR-D",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--seed", "1", "--cr-interval", "50",
            ]
        )
        assert code == 0
        assert "wathen100" in capsys.readouterr().out

    def test_campaign_runs_then_resumes_from_cache(self, capsys, tmp_path):
        args = [
            "campaign", "--matrices", "wathen100", "--schemes", "RD",
            "--ranks", "8", "--faults", "2", "--scale", "0.25",
            "--store", str(tmp_path / "cache"), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "per-cell results" in out
        assert "ran" in out
        assert "normalized iterations" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("cached") >= 2  # FF + RD both served from the store

    def test_campaign_list_presets(self, capsys):
        assert main(["campaign", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "iteration-study" in out
        assert "cost-study" in out

    def test_run_trace_prints_latency_summary(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "F0",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry (sim time):" in out
        assert "fault→recovery latency:" in out
        assert "span summary" in out

    def test_campaign_trace_then_trace_subcommand(self, capsys, tmp_path):
        store = str(tmp_path / "cache")
        export = tmp_path / "trace.jsonl"
        assert main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "F0",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--store", store, "--quiet", "--trace",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign telemetry rollup:" in out
        assert "recovery.latency_s{scheme=F0}" in out

        assert main(
            [
                "trace", "--store", store, "--events", "--spans",
                "--export", str(export),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "event stream" in out
        assert "fault" in out
        assert "span summary" in out
        assert "fault→recovery latency by scheme" in out
        assert export.exists()

        from repro.campaign.store import load_payload_lines

        labels = [e.cell.label for e in load_payload_lines(export)]
        assert "wathen100/r8/f2/x0.25/F0" in labels

    def test_trace_filters_by_scheme_and_kind(self, capsys, tmp_path):
        store = str(tmp_path / "cache")
        main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "F0",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--store", store, "--quiet", "--trace",
            ]
        )
        capsys.readouterr()
        assert main(
            [
                "trace", "--store", store, "--scheme", "F0",
                "--events", "--kind", "fault",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "F0" in out
        assert "/FF" not in out  # baseline filtered out
        # only fault events in the stream: no recovery/phase rows
        assert "needs_restart" not in out
        assert "from_phase" not in out
        assert "victim_rank=" in out

    def test_trace_on_untraced_store_reports_nothing(self, capsys, tmp_path):
        store = str(tmp_path / "cache")
        main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "RD",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--store", store, "--quiet",
            ]
        )
        capsys.readouterr()
        assert main(["trace", "--store", store]) == 1
        assert "no traced cells" in capsys.readouterr().out

    def test_trace_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--store", str(tmp_path / "nope")])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheme", "MAGIC"])

    def test_rejects_unknown_matrix(self):
        with pytest.raises(SystemExit):
            main(["run", "--matrix", "not-a-matrix"])

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("flag", ["--fast", "--no-fast"])
    def test_rejects_the_removed_fast_switch(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            main([command, flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_rejects_the_removed_batch_window(self, capsys):
        # --workers 0: were the flag still accepted, serve would exit on
        # its own validation (a message, not argparse's code 2) instead
        # of starting a server
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch-window-ms", "2", "--workers", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["top", "--port", "8030", "--once"], "invalid choice: 'top'"),
            (["serve", "--history-out", "h.json"], "unrecognized arguments"),
            (["serve", "--sample-interval", "1"], "unrecognized arguments"),
            (["serve", "--history-capacity", "3"], "unrecognized arguments"),
            (["serve", "--latency-buckets", "0.1"], "unrecognized arguments"),
            (["doctor", "--history", "h.json"], "unrecognized arguments"),
        ],
        ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else "",
    )
    def test_rejects_the_removed_live_ops_surface(self, argv, message, capsys):
        # --workers 0 makes a serve that still took the flag exit on its
        # own validation instead of starting a server
        if argv[0] == "serve":
            argv = [*argv, "--workers", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, invalid",
        [
            pytest.param(command, invalid, id=command)
            for command, invalid in (
                ("run", ["--faults", "-1"]),
                ("suite", ["--faults", "-1"]),
                ("campaign", ["--workers", "0"]),
                ("serve", ["--workers", "0"]),
            )
        ],
    )
    def test_rejects_the_removed_backend_flag(self, command, invalid, capsys):
        # the loop backend is the tests' oracle, not an option.  Were the
        # flag still accepted, the invalid value would end the command on
        # its own validation instead of running cells or a server.
        with pytest.raises(SystemExit) as exc:
            main([command, "--backend", "loop", *invalid])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend loop" in capsys.readouterr().err

    def test_campaign_rejects_the_removed_heartbeat_flag(self, capsys):
        # workers send nothing between a cell's lifecycle events
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--preset", "smoke", "--heartbeat-interval", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cr_interval_parsing(self):
        assert _parse_cr_interval("paper") == "paper"
        assert _parse_cr_interval("young") == "young"
        assert _parse_cr_interval("50") == 50
        with pytest.raises(SystemExit):
            _parse_cr_interval("weekly")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestMultiVictimCli:
    def test_run_victims_per_fault(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "ESR",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--victims-per-fault", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free:" in out
        assert "normalized:" in out

    def test_campaign_victims_axis_multiplies_the_grid(self, capsys, tmp_path):
        assert main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "ESR",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--store", str(tmp_path / "cache"), "--quiet",
                "--victims-per-fault", "1", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 victim-set sizes [1, 2]" in out
        assert "4 cells" in out  # (FF + ESR) x 2 victim-set sizes

    def test_analytic_run_rejects_unmodelled_scheme_at_parse_time(
        self, capsys
    ):
        """Satellite regression: an analytic-unsupported scheme dies in
        argument handling — before any solve — naming the scheme and
        the full analytic-capable list."""
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "run", "--matrix", "wathen100", "--scheme", "CR-ML",
                    "--faults", "2", "--ranks", "8", "--scale", "0.25",
                    "--engine", "analytic",
                ]
            )
        msg = str(exc.value)
        assert "CR-ML" in msg
        assert "no closed-form analytic model" in msg
        assert "ESR" in msg and "ABCR" in msg  # the known-schemes list

    def test_sim_run_accepts_unmodelled_scheme(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "CR-ML",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
            ]
        )
        assert code == 0

    def test_analytic_campaign_rejects_unmodelled_scheme(self, tmp_path):
        with pytest.raises(SystemExit, match="no closed-form"):
            main(
                [
                    "campaign", "--matrices", "wathen100",
                    "--schemes", "CR-ML", "--ranks", "8", "--faults", "2",
                    "--scale", "0.25", "--engine", "sim", "analytic",
                    "--store", str(tmp_path / "cache"), "--quiet",
                ]
            )


class TestEngineCli:
    def test_run_analytic_engine(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "LI",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--engine", "analytic",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free:" in out
        assert "normalized:" in out

    def test_run_fault_scope_prints_blast_radius(self, capsys):
        code = main(
            [
                "run", "--matrix", "wathen100", "--scheme", "LI",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--fault-scope", "system",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault scope system: up to 8 of 8 ranks lost per fault" in out

    def test_run_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["run", "--engine", "quantum"])

    def test_suite_analytic_engine(self, capsys):
        code = main(
            [
                "suite", "--matrices", "wathen100", "--schemes", "RD", "F0",
                "--faults", "2", "--ranks", "8", "--scale", "0.25",
                "--engine", "analytic",
            ]
        )
        assert code == 0
        assert "wathen100" in capsys.readouterr().out

    def test_campaign_sweeps_both_engines(self, capsys, tmp_path):
        assert main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "RD",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--engine", "sim", "analytic",
                "--store", str(tmp_path / "cache"), "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 engines [sim, analytic]" in out
        # both engines' cells land in the normalized tables
        assert out.count("wathen100") >= 4

    def test_validate_passes_on_the_preset_slice(self, capsys):
        code = main(
            ["validate", "--matrices", "wathen100", "--no-store", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: max normalized drift" in out
        assert "CR-D" in out

    def test_validate_fails_on_a_tight_threshold(self, capsys):
        code = main(
            [
                "validate", "--matrices", "wathen100", "--schemes", "RD",
                "--threshold", "0.001", "--no-store", "--quiet",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_terms_prints_per_term_drift(self, capsys):
        code = main(
            [
                "validate", "--matrices", "wathen100", "--schemes", "RD",
                "--no-store", "--quiet", "--terms",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "term" in out
        assert "T_" in out or "E_" in out  # at least one Section-3 term row

    def test_validate_terms_with_no_pairs_fails(self, capsys):
        # a grid of FF-only cells yields nothing to pair: --terms must
        # still exit 1 with the no-pairs verdict, not crash or pass
        code = main(
            [
                "validate", "--matrices", "wathen100", "--schemes", "FF",
                "--no-store", "--quiet", "--terms",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL: no comparable sim/analytic cell pairs" in out


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    """A small traced campaign persisted to a store, shared read-only."""
    store = str(tmp_path_factory.mktemp("cli-obs") / "cache")
    assert main(
        [
            "campaign", "--matrices", "wathen100", "--schemes", "RD", "F0",
            "--ranks", "8", "--faults", "2", "--scale", "0.25",
            "--store", store, "--quiet", "--trace",
        ]
    ) == 0
    return store


class TestReportCli:
    def test_report_prints_waterfalls_and_critical_path(self, capsys, traced_store):
        assert main(["report", "--store", traced_store]) == 0
        out = capsys.readouterr().out
        assert "source: metrics" in out
        assert "residual" in out
        assert "per-scheme rollup:" in out
        assert "critical path:" in out

    def test_report_filters_by_scheme(self, capsys, traced_store):
        assert main(["report", "--store", traced_store, "--scheme", "RD"]) == 0
        out = capsys.readouterr().out
        assert "[RD]" in out
        assert "[F0]" not in out

    def test_report_no_matching_cells_fails(self, capsys, traced_store):
        assert main(["report", "--store", traced_store, "--matrix", "nope"]) == 1
        assert "no cells match" in capsys.readouterr().out
        # "r8" is in every label of the store, but it names no matrix
        assert main(["report", "--store", traced_store, "--matrix", "r8"]) == 1
        assert "no cells match" in capsys.readouterr().out

    def test_report_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["report", "--store", str(tmp_path / "nope")])

    def test_an_old_layout_directory_without_an_index_is_no_store(self, tmp_path):
        frame = tmp_path / "old" / "payloads" / "ab" / ("ab" * 32 + ".frame")
        frame.parent.mkdir(parents=True)
        frame.write_bytes(b"REPRO\x00F8")
        with pytest.raises(SystemExit, match="no result store"):
            main(["report", "--store", str(tmp_path / "old")])
        assert not (tmp_path / "old" / "index.db").exists()

    def test_report_diff_two_cells(self, capsys, traced_store):
        assert main(
            [
                "report", "--store", traced_store, "--diff",
                "wathen100/r8/f2/x0.25/RD", "wathen100/r8/f2/x0.25/F0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "diff: A=wathen100/r8/f2/x0.25/RD" in out

    def test_report_diff_unknown_label_lists_known(self, traced_store):
        with pytest.raises(SystemExit, match="no cell labelled") as exc:
            main(["report", "--store", traced_store, "--diff", "x", "y"])
        # the error is actionable: it names the labels that do exist
        assert "wathen100/r8/f2/x0.25/RD" in str(exc.value)

    def test_report_diff_one_bad_label_names_the_bad_one(self, traced_store):
        with pytest.raises(SystemExit, match="no cell labelled 'nope'"):
            main(
                [
                    "report", "--store", traced_store, "--diff",
                    "wathen100/r8/f2/x0.25/RD", "nope",
                ]
            )

    def test_report_writes_html_and_prometheus(self, capsys, tmp_path, traced_store):
        html = tmp_path / "report.html"
        prom = tmp_path / "metrics.prom"
        assert main(
            [
                "report", "--store", traced_store,
                "--html", str(html), "--prometheus", str(prom),
            ]
        ) == 0
        printed = capsys.readouterr().out
        page = html.read_text()
        assert page.startswith("<!DOCTYPE html>")
        # the page is the printed report, verbatim, in one <pre>
        body = page[page.index("<pre>") + 5 : page.index("</pre>")]
        assert unescape(body) == printed
        assert "critical path:" in printed
        assert "# TYPE" in prom.read_text()

    def test_report_rejects_a_line_that_is_not_a_payload(self, tmp_path):
        old = tmp_path / "old.jsonl"
        old.write_text('{"stream":"cell","cell":"x","timebase":"sim"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["report", "--jsonl", str(old)])
        message = exc.value.code  # a str: printed to stderr, exit status 1
        assert isinstance(message, str) and "\n" not in message
        assert "line 1 is not a result-store payload" in message
        assert '{"key", "cell": {"config", "scheme"}, "report"}' in message

    def test_report_into_a_closed_pipe_exits_quietly(self, traced_store):
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "report", "--store", traced_store],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        proc.stdout.close()  # the reader goes away before the first write
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""  # no BrokenPipeError traceback

    def test_report_rejects_jsonl_plus_store(self, traced_store, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "report", "--store", traced_store,
                    "--jsonl", str(tmp_path / "t.jsonl"),
                ]
            )


class TestCorruptIndex:
    """A damaged ``index.db`` ends the command with one line naming the
    file (exit 1, as a missing store does), not a sqlite traceback."""

    @pytest.mark.parametrize("offset", [0, 100])
    @pytest.mark.parametrize(
        "command",
        [
            [
                "campaign", "--matrices", "wathen100", "--schemes", "RD", "F0",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--quiet", "--trace",
            ],
            ["report"],
            ["doctor"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_is_one_line_naming_the_file(
        self, command, offset, traced_store, tmp_path
    ):
        root = tmp_path / "cache"
        shutil.copytree(traced_store, root)
        index = root / "index.db"
        blob = bytearray(index.read_bytes())
        blob[offset] ^= 0xFF
        index.write_bytes(bytes(blob))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--store", str(root)])
        message = exc.value.code  # a str: printed to stderr, exit status 1
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"unreadable result store index {index} (sqlite: ")
        assert message.endswith(
            "deleting it drops its cells, which are then recomputed"
        )

    def test_deleting_it_recomputes_its_cells(self, capsys, traced_store, tmp_path):
        """The frames lived in the damaged index: with it gone there is
        no store to read, and the campaign runs every cell again."""
        root = tmp_path / "cache"
        shutil.copytree(traced_store, root)
        index = root / "index.db"
        blob = bytearray(index.read_bytes())
        blob[100] ^= 0xFF
        index.write_bytes(bytes(blob))
        argv = [
            "campaign", "--matrices", "wathen100", "--schemes", "RD", "F0",
            "--ranks", "8", "--faults", "2", "--scale", "0.25",
            "--trace", "--store", str(root),
        ]
        with pytest.raises(SystemExit):
            main(argv)
        index.unlink()
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no result store at"):
            main(["report", "--store", str(root)])
        assert main(argv) == 0
        assert "3 cells: 3 ran, 0 cached, 0 failed" in capsys.readouterr().out
        assert main(["report", "--store", str(root)]) == 0
        assert "per-scheme rollup:" in capsys.readouterr().out
        assert main(argv) == 0
        assert "3 cells: 0 ran, 3 cached, 0 failed" in capsys.readouterr().out


class TestDoctorCli:
    def test_doctor_passes_on_a_clean_store(self, capsys, traced_store):
        assert main(["doctor", "--store", traced_store]) == 0
        out = capsys.readouterr().out
        assert "doctor:" in out
        assert "no findings" in out

    def test_doctor_lists_detectors(self, capsys):
        assert main(["doctor", "--list-detectors"]) == 0
        out = capsys.readouterr().out
        assert "energy_balance" in out
        assert "span_integrity" in out
        assert "[campaign]" in out  # model_divergence scope
        assert "slo_burn" not in out and "[history]" not in out

    def test_doctor_lists_seven_detectors(self, capsys):
        """Two fleet detectors remain: a pool hands each config group
        whole to one worker, so workers have no like-for-like cells to
        compare, and no worker sends anything between a cell's events."""
        assert main(["doctor", "--list-detectors"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == [
            "cache_stampede", "energy_balance", "model_divergence",
            "residual_convergence", "retry_storm", "schedule_drift",
            "span_integrity",
        ]

    def test_doctor_rejects_unknown_detector(self, traced_store):
        with pytest.raises(SystemExit, match="unknown detectors"):
            main(["doctor", "--store", traced_store, "--detectors", "nope"])

    def test_doctor_named_subset_runs(self, capsys, traced_store):
        assert main(
            [
                "doctor", "--store", traced_store,
                "--detectors", "span_integrity", "energy_balance",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 detector(s) (span_integrity, energy_balance), manifest" in out

    def test_doctor_names_a_fleet_detector_it_ran(self, capsys, traced_store):
        # the store's campaign left a manifest, so the fleet one runs
        assert main(
            [
                "doctor", "--store", traced_store,
                "--detectors", "retry_storm", "span_integrity",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 detector(s) (retry_storm, span_integrity), manifest" in out

    def test_doctor_no_matching_cells_fails(self, capsys, traced_store):
        assert main(["doctor", "--store", traced_store, "--matrix", "nope"]) == 1

    def test_doctor_jsonl_round_trip_is_clean(self, capsys, tmp_path, traced_store):
        export = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--store", traced_store, "--export", str(export)]
        ) == 0
        capsys.readouterr()
        assert main(["doctor", "--jsonl", str(export)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        # an export carries no manifest: only the 5 cell and campaign
        # detectors ran, not the fleet ones
        assert (
            "5 detector(s) (energy_balance, model_divergence,"
            " residual_convergence, schedule_drift, span_integrity)\n"
        ) in out

    def test_doctor_flags_a_corrupted_trace(self, capsys, tmp_path, traced_store):
        """The acceptance case: span gap + energy imbalance -> exit 1."""
        from dataclasses import replace

        from repro.campaign.store import load_payload_lines, payload_line

        export = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--store", traced_store, "--export", str(export)]
        ) == 0
        capsys.readouterr()
        entries = load_payload_lines(export)
        label, tel = next(
            (e.cell.label, e.report.details["telemetry"])
            for e in entries
            if e.cell.label.endswith("/RD")
        )
        spans = tel.spans.spans
        root = max(spans, key=lambda s: s.duration_s)
        child = next(i for i, s in enumerate(spans) if s.depth == 1)
        spans[child] = replace(  # a gap: the child escapes the solve span
            spans[child], t_start=root.t_end + 1.0, t_end=root.t_end + 2.0
        )
        tel.metrics.counter("phase.energy_j", phase="solve").inc(1e9)
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            "".join(payload_line(e.cell, e.report) + "\n" for e in entries)
        )

        assert main(["doctor", "--jsonl", str(corrupted)]) == 1
        out = capsys.readouterr().out
        assert "span_integrity" in out
        assert "energy_balance" in out
        assert label in out


class TestServeCli:
    def test_serve_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--host", "--port", "--workers", "--cache-size",
            "--store", "--no-store",
        ):
            assert flag in out

    def test_serve_appears_in_the_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "serve" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The option surface, pinned: every subcommand's flags with their nargs,
# default, choices and type.  A refactor of the parser must leave this
# table untouched; changing it is changing the command line.
MATRICES = tuple(suite.names())
SCHEMES = tuple(scheme_names())
ENGINES = tuple(engine_names())

OPTION_SURFACE = {
    "": {
        "--log-level": (None, None, ("debug", "info", "warning", "error"), None),
        "--log-file": (None, None, None, None),
    },
    "run": {
        "--matrix": (None, "crystm02", MATRICES, None),
        "--scheme": (None, "LI-DVFS", SCHEMES, None),
        "--faults": (None, 5, None, "int"),
        "--ranks": (None, 64, None, "int"),
        "--tol": (None, 1e-08, None, "float"),
        "--scale": (None, 1.0, None, "float"),
        "--seed": (None, 0, None, "int"),
        "--engine": (None, "sim", ENGINES, None),
        "--fault-scope": (None, "process", ("process", "node", "system"), None),
        "--victims-per-fault": (None, 1, None, "int"),
        "--precond": (None, None, ("jacobi",), None),
        "--cr-interval": (None, "paper", None, None),
        "--trace": (0, False, None, None),
    },
    "suite": {
        "--matrices": ("+", None, MATRICES, None),
        "--schemes": ("+", ["RD", "F0", "LI", "CR-D"], SCHEMES, None),
        "--faults": (None, 10, None, "int"),
        "--ranks": (None, 64, None, "int"),
        "--scale": (None, 1.0, None, "float"),
        "--seed": (None, 0, None, "int"),
        "--engine": (None, "sim", ENGINES, None),
        "--cr-interval": (None, "paper", None, None),
        "--victims-per-fault": (None, 1, None, "int"),
    },
    "campaign": {
        "--preset": (
            None, None,
            ("iteration-study", "cost-study", "dvfs-study", "smoke",
             "multi-fault", "model-validation"),
            None,
        ),
        "--matrices": ("+", None, MATRICES, None),
        "--schemes": ("+", None, SCHEMES, None),
        "--ranks": ("+", None, None, "int"),
        "--faults": ("+", None, None, "int"),
        "--seeds": ("+", None, None, "int"),
        "--engine": ("+", None, ENGINES, None),
        "--victims-per-fault": ("+", None, None, "int"),
        "--scale": (None, None, None, "float"),
        "--tol": (None, None, None, "float"),
        "--cr-interval": (None, None, None, None),
        "--workers": (None, 1, None, "int"),
        "--store": (None, None, None, None),
        "--resume": (0, True, None, None),
        "--no-resume": (0, True, None, None),
        "--no-store": (0, False, None, None),
        "--timeout": (None, None, None, "float"),
        "--retries": (None, 1, None, "int"),
        "--quiet": (0, False, None, None),
        "--trace": (0, False, None, None),
        "--watch": (0, False, None, None),
        "--once": (0, False, None, None),
        "--json-progress": (None, None, None, None),
        "--list-presets": (0, False, None, None),
    },
    "validate": {
        "--matrices": ("+", None, MATRICES, None),
        "--schemes": ("+", None, (*SCHEMES, "FF"), None),
        "--threshold": (None, None, None, "float"),
        "--workers": (None, 1, None, "int"),
        "--store": (None, None, None, None),
        "--no-store": (0, False, None, None),
        "--quiet": (0, False, None, None),
        "--terms": (0, False, None, None),
    },
    "trace": {
        "--store": (None, None, None, None),
        "--matrix": (None, None, MATRICES, None),
        "--scheme": (None, None, None, None),
        "--kind": (
            None, None,
            ("fault", "recovery", "checkpoint", "restart", "phase"),
            None,
        ),
        "--events": (0, False, None, None),
        "--spans": (0, False, None, None),
        "--export": (None, None, None, None),
    },
    "report": {
        "--store": (None, None, None, None),
        "--jsonl": (None, None, None, None),
        "--matrix": (None, None, None, None),
        "--scheme": (None, None, None, None),
        "--diff": (2, None, None, None),
        "--html": (None, None, None, None),
        "--prometheus": (None, None, None, None),
        "--campaign": ("?", None, None, None),
    },
    "doctor": {
        "--store": (None, None, None, None),
        "--jsonl": (None, None, None, None),
        "--matrix": (None, None, None, None),
        "--scheme": (None, None, None, None),
        "--detectors": ("+", None, None, None),
        "--list-detectors": (0, False, None, None),
        "--run-id": (None, None, None, None),
    },
    "project": {
        "--sizes": ("+", [192, 1536, 12288, 49152, 98304], None, "int"),
    },
    "mtbf": {},
    "serve": {
        "--host": (None, "127.0.0.1", None, None),
        "--port": (None, 8030, None, "int"),
        "--workers": (None, 2, None, "int"),
        "--cache-size": (None, 256, None, "int"),
        "--store": (None, None, None, None),
        "--no-store": (0, False, None, None),
    },
}


def _option_surface(parser) -> dict:
    """``{option string: (nargs, default, choices, type name)}``."""
    out = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        choices = None if action.choices is None else tuple(action.choices)
        kind = None if action.type is None else action.type.__name__
        for option in action.option_strings:
            out[option] = (action.nargs, action.default, choices, kind)
    return out


def _subparsers(parser) -> dict:
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(sub.choices)


class TestOptionSurface:
    def test_subcommands(self):
        assert set(_subparsers(_build_parser())) == set(OPTION_SURFACE) - {""}

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    def test_options(self, command):
        parser = _build_parser()
        if command:
            parser = _subparsers(parser)[command]
        assert _option_surface(parser) == OPTION_SURFACE[command]


# ----------------------------------------------------------------------
# Every command line the documentation shows must parse.
ROOT = Path(__file__).resolve().parents[2]
DOCUMENTED = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
              ".claude/skills/verify/SKILL.md", "src/repro/cli.py")


def _documented_commands() -> list:
    """``(where, argv)`` for every ``python -m repro.cli ...`` line, with
    backslash continuations joined; the argv stops at a backtick or a
    shell comment, and a bare mention of the module (no arguments) is
    not a command."""
    out = []
    for name in DOCUMENTED:
        path = ROOT / name
        if not path.exists():
            continue
        text = re.sub(r"\\\n\s*", " ", path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            _, found, rest = line.partition("python -m repro.cli")
            if not found:
                continue
            argv = shlex.split(rest.split("`")[0], comments=True)
            if argv:
                out.append((f"{name}:{lineno}", argv))
    return out


class TestDocumentedCommands:
    def test_found_them(self):
        assert len(_documented_commands()) >= 45

    @pytest.mark.parametrize(
        "argv", [argv for _, argv in _documented_commands()],
        ids=[where for where, _ in _documented_commands()],
    )
    def test_parses(self, argv):
        _build_parser().parse_args(argv)


# ----------------------------------------------------------------------
class TestBadArgumentValues:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--workers", "0", "--no-store"], "max_workers must be >= 1"),
            (
                ["campaign", "--preset", "smoke", "--no-store", "--retries", "-1"],
                "retries must be >= 0",
            ),
            (["run", "--faults", "-1"], "n_faults must be non-negative"),
            (["suite", "--faults", "-1"], "n_faults must be non-negative"),
            (["run", "--victims-per-fault", "0"], "victims_per_fault must be >= 1"),
            (
                ["campaign", "--preset", "smoke", "--no-store", "--timeout", "-1"],
                "timeout_s must be > 0",
            ),
            (
                ["campaign", "--preset", "smoke", "--no-store", "--timeout", "0"],
                "timeout_s must be > 0",
            ),
            (["project", "--sizes", "0"], "system sizes must be positive"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--cache-size", "-1"], "cache_size must be >= 0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_serve_is_a_usage_error(self, flags, message):
        # in a child: serve configures the process's logging
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--no-store", *flags],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert f"repro serve: error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def plain_and_jacobi_store(tmp_path_factory):
    """Four traced cells that differ only in scheme and preconditioner."""
    from dataclasses import replace

    from repro.campaign import CampaignCell, ResultStore
    from repro.harness.experiment import Experiment, ExperimentConfig

    root = tmp_path_factory.mktemp("precond") / "cache"
    plain = ExperimentConfig(
        matrix="Kuu", nranks=8, n_faults=2, scale=0.25, trace=True
    )
    with ResultStore(root) as store:
        for config in (plain, replace(plain, preconditioner="jacobi")):
            exp = Experiment(config)
            for scheme in ("FF", "LI"):
                store.put(CampaignCell(config, scheme), exp.run(scheme))
    return str(root)


class TestLabelsDoNotCollide:
    def test_trace_exports_every_cell(self, capsys, tmp_path, plain_and_jacobi_store):
        from repro.campaign.store import load_payload_lines

        out = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--store", plain_and_jacobi_store, "--export", str(out)]
        ) == 0
        assert "wrote 4 cells" in capsys.readouterr().out
        assert sorted(e.cell.label for e in load_payload_lines(out)) == [
            "Kuu/r8/f2/x0.25/FF",
            "Kuu/r8/f2/x0.25/LI",
            "Kuu/r8/f2/x0.25/jacobi/FF",
            "Kuu/r8/f2/x0.25/jacobi/LI",
        ]

    def test_report_diffs_plain_against_jacobi(self, capsys, plain_and_jacobi_store):
        assert main(
            [
                "report", "--store", plain_and_jacobi_store,
                "--diff", "Kuu/r8/f2/x0.25/LI", "Kuu/r8/f2/x0.25/jacobi/LI",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "diff: A=Kuu/r8/f2/x0.25/LI  B=Kuu/r8/f2/x0.25/jacobi/LI" in out
        assert "runs are identical" not in out
