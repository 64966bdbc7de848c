"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_cr_interval, main


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

    def test_run_backend_loop_prints_the_same_numbers(self, capsys):
        args = [
            "run", "--matrix", "wathen100", "--scheme", "F0",
            "--faults", "2", "--ranks", "8", "--scale", "0.25",
        ]
        assert main(args + ["--backend", "loop"]) == 0
        loop_out = capsys.readouterr().out
        assert main(args + ["--backend", "batched"]) == 0
        batched_out = capsys.readouterr().out
        # the backends are bit-identical, so every printed figure agrees
        assert loop_out == batched_out

    def test_campaign_backend_axis_doubles_the_grid(self, capsys, tmp_path):
        assert main(
            [
                "campaign", "--matrices", "wathen100", "--schemes", "RD",
                "--ranks", "8", "--faults", "2", "--scale", "0.25",
                "--store", str(tmp_path / "cache"), "--quiet",
                "--backend", "loop", "batched",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 backends [loop, batched]" in out
        assert "4 cells" in out  # (FF + RD) x 2 backends

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

        from repro.obs.export import load_trace_jsonl

        cells = load_trace_jsonl(export)
        assert "wathen100/r8/f2/x0.25/F0" in cells

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

    def test_report_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["report", "--store", str(tmp_path / "nope")])

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
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert "Phase attribution" in html.read_text()
        assert "# TYPE" in prom.read_text()

    def test_report_rejects_jsonl_plus_store(self, traced_store, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "report", "--store", traced_store,
                    "--jsonl", str(tmp_path / "t.jsonl"),
                ]
            )


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
        assert "2 detector(s)" in capsys.readouterr().out

    def test_doctor_no_matching_cells_fails(self, capsys, traced_store):
        assert main(["doctor", "--store", traced_store, "--matrix", "nope"]) == 1

    def test_doctor_jsonl_round_trip_is_clean(self, capsys, tmp_path, traced_store):
        export = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--store", traced_store, "--export", str(export)]
        ) == 0
        capsys.readouterr()
        assert main(["doctor", "--jsonl", str(export)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_doctor_flags_a_corrupted_trace(self, capsys, tmp_path, traced_store):
        """The acceptance case: span gap + energy imbalance -> exit 1."""
        from dataclasses import replace

        from repro.obs.export import load_trace_jsonl, write_trace_jsonl

        export = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--store", traced_store, "--export", str(export)]
        ) == 0
        capsys.readouterr()
        cells = load_trace_jsonl(export)
        label, tel = next(
            (lbl, t) for lbl, t in cells.items() if lbl.endswith("/RD")
        )
        spans = tel.spans.spans
        root = max(spans, key=lambda s: s.duration_s)
        child = next(i for i, s in enumerate(spans) if s.depth == 1)
        spans[child] = replace(  # a gap: the child escapes the solve span
            spans[child], t_start=root.t_end + 1.0, t_end=root.t_end + 2.0
        )
        tel.metrics.counter("phase.energy_j", phase="solve").inc(1e9)
        corrupted = tmp_path / "corrupted.jsonl"
        write_trace_jsonl(corrupted, cells)

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
