"""Runner: execution, resume, retries, crashes, serial/parallel equality."""

import gc
import json
import os
import pickle
import signal
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict

import pytest

from repro.campaign import runner as runner_module
from repro.campaign import store as store_module
from repro.campaign.manifest import manifest_from_doc, manifest_to_doc
from repro.campaign.progress import (
    ProgressReporter,
    format_normalized_tables,
    format_summary,
    summary_counters,
)
from repro.campaign.runner import (
    CellTimeout,
    execute_cell,
    run_campaign,
)
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.cg import DistributedCG
from repro.core.trajectory import Point, TrajectoryMemo
from repro.harness.experiment import Experiment, ExperimentConfig
from tests.differential import assert_reports_identical

from tests.campaign.helpers import (
    FLAKY_DIR_ENV,
    SCRIPT_FILE,
    always_raising_worker,
    assert_reports_equal,
    crashing_worker,
    raising_worker,
    scripted_worker,
)


@pytest.fixture()
def flaky_state(tmp_path, monkeypatch):
    state = tmp_path / "flaky-state"
    state.mkdir()
    monkeypatch.setenv(FLAKY_DIR_ENV, str(state))
    return state


class TestExecuteCell:
    def test_baseline_priming_skips_the_ff_solve(self):
        cfg = ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
        ff, _ = execute_cell(CampaignCell(cfg, "FF"))
        primed, _ = execute_cell(CampaignCell(cfg, "RD"), baseline=ff)
        unprimed, _ = execute_cell(CampaignCell(cfg, "RD"))
        assert_reports_equal(primed, unprimed)

    def test_cell_timeout_rearms_an_enclosing_alarm(self):
        """The suite's hang guard (and any caller's own deadline) keeps
        running after a timed cell clears its alarm."""
        cfg = ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert remaining > 0  # tests/conftest.py's guard is armed
        execute_cell(CampaignCell(cfg, "FF"), timeout_s=60.0)
        after, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0 < after <= remaining

    def test_timeout_aborts_the_cell(self):
        cfg = ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2)
        with pytest.raises(CellTimeout):
            execute_cell(CampaignCell(cfg, "FF"), timeout_s=1e-3)


class TestSerialCampaign:
    def test_runs_every_cell(self, tiny_spec, store):
        result = run_campaign(tiny_spec, store=store, max_workers=1)
        assert result.n_ran == len(tiny_spec)
        assert result.n_failed == 0
        assert [r.cell for r in result.results] == tiny_spec.cells()

    def test_resume_serves_everything_from_cache(self, tiny_spec, store):
        first = run_campaign(tiny_spec, store=store, max_workers=1)
        second = run_campaign(tiny_spec, store=store, max_workers=1)
        assert second.n_cached == len(tiny_spec)
        assert second.n_ran == 0
        for a, b in zip(first.results, second.results):
            assert_reports_equal(a.report, b.report)

    def test_no_resume_recomputes(self, tiny_spec, store):
        run_campaign(tiny_spec, store=store, max_workers=1)
        fresh = run_campaign(tiny_spec, store=store, max_workers=1, resume=False)
        assert fresh.n_ran == len(tiny_spec)

    def test_partial_store_runs_only_the_gap(self, tiny_spec, store):
        # seed the store with one matrix's cells only
        half = CampaignSpec(
            name="half",
            matrices=("wathen100",),
            schemes=tiny_spec.schemes,
            nranks=tiny_spec.nranks,
            fault_loads=tiny_spec.fault_loads,
            scale=tiny_spec.scale,
        )
        run_campaign(half, store=store, max_workers=1)
        result = run_campaign(tiny_spec, store=store, max_workers=1)
        assert result.n_cached == 3
        assert result.n_ran == 3


class TestResumeIsLinearInCells:
    """A resume does per-cell work only: it never sizes the store, reads
    each payload once and hashes each cell once (ISSUE 22)."""

    def test_resume_walks_nothing_and_touches_each_cell_once(
        self, tiny_spec, store, monkeypatch
    ):
        run_campaign(tiny_spec, store=store, max_workers=1)

        def walked(self):
            raise AssertionError("resume sized every payload in the store")

        monkeypatch.setattr(ResultStore, "payload_bytes", walked)
        reads, hashes = [], []
        read, hashed = store._read_payload, store_module._hash_material
        monkeypatch.setattr(
            store, "_read_payload", lambda key: reads.append(key) or read(key)
        )
        monkeypatch.setattr(
            store_module,
            "_hash_material",
            lambda *args: hashes.append(args[0]) or hashed(*args),
        )
        result = run_campaign(tiny_spec, store=store, max_workers=1)

        n = len(tiny_spec)
        assert [r.status for r in result.results] == ["cached"] * n
        # the result's cells are the objects the run hashed: their keys
        # are read back here, not hashed again
        assert sorted(reads) == sorted(store.key(r.cell) for r in result.results)
        # one current-format hash per cell; no legacy chain on a hit
        assert hashes == [store_module.STORE_FORMAT] * n

    def test_persisted_manifest_is_the_parents_document(self, tiny_spec, store):
        run_campaign(tiny_spec, store=store, max_workers=1)
        result = run_campaign(tiny_spec, store=store, max_workers=1)
        manifest = result.manifest
        assert len(manifest.cells) == len(tiny_spec)
        assert manifest_from_doc(manifest_to_doc(manifest)) == manifest
        # the parent commit's encoding: asdict, rows re-listed
        parent_doc = asdict(manifest)
        parent_doc["cells"] = [asdict(c) for c in manifest.cells]
        parent_doc["worker_rows"] = [asdict(w) for w in manifest.worker_rows]
        (stored,) = store._db.execute(
            "SELECT doc FROM manifests WHERE run_id = ?", (result.run_id,)
        ).fetchone()
        assert stored == json.dumps(
            parent_doc, sort_keys=True, separators=(",", ":")
        )
        assert json.dumps(manifest_to_doc(manifest)) == json.dumps(parent_doc)


class TestRetries:
    def test_cell_raising_once_then_succeeding(self, tiny_spec, store, flaky_state):
        result = run_campaign(
            tiny_spec, store=store, max_workers=1, worker=raising_worker
        )
        assert result.n_failed == 0
        retried = [r for r in result.results if r.attempts > 1]
        assert {r.cell.scheme for r in retried} == {"RD"}

    def test_retry_exhaustion_fails_the_cell_not_the_campaign(
        self, tiny_spec, store, flaky_state
    ):
        result = run_campaign(
            tiny_spec, store=store, max_workers=1, worker=always_raising_worker
        )
        # every baseline failed; their scheme cells are failed by propagation
        assert result.n_failed == len(tiny_spec)
        for r in result.results:
            if not r.cell.is_baseline:
                assert "baseline failed" in r.error

    def test_worker_crash_rebuilds_pool_and_retries(
        self, tiny_spec, store, flaky_state
    ):
        result = run_campaign(
            tiny_spec, store=store, max_workers=2, worker=crashing_worker
        )
        assert result.n_failed == 0
        assert result.n_ran == len(tiny_spec)
        crashed = [r for r in result.results if r.attempts > 1]
        assert any(r.cell.scheme == "RD" for r in crashed)

    def test_parallel_transient_errors_are_retried(
        self, tiny_spec, store, flaky_state
    ):
        result = run_campaign(
            tiny_spec, store=store, max_workers=2, worker=raising_worker
        )
        assert result.n_failed == 0

    def test_a_pool_broken_mid_submission_is_a_broken_round(
        self, tiny_spec, store, monkeypatch
    ):
        """A worker can die before the rest of its round is submitted:
        the unsubmitted cells are re-queued like their in-flight mates."""
        real_pool = runner_module.CampaignRunner._pool
        submits = []

        def pool(self, workers):
            executor = real_pool(self, workers)
            if not submits:
                submit = executor.submit

                def submit_once(*args):
                    submits.append(args)
                    if len(submits) > 1:
                        raise BrokenProcessPool("worker died mid-submission")
                    return submit(*args)

                executor.submit = submit_once
            return executor

        monkeypatch.setattr(runner_module.CampaignRunner, "_pool", pool)
        result = run_campaign(tiny_spec, store=store, max_workers=2)
        assert len(submits) == 2
        assert result.n_failed == 0
        assert result.n_ran == len(tiny_spec)


RETRIES = 1
#: Pooled rounds that break before the survivors run alone: each costs
#: every unfinished cell one attempt, so a cell enters the crash endgame
#: as attempt ``RETRIES + 2`` with its error budget already spent.
BROKEN_ROUNDS = ["crash"] * (RETRIES + 1)
RAISED = "RuntimeError: scripted failure"
TIMED_OUT = "exceeded its budget"
CRASHED = "worker process crashed"

#: (driver, the RD cell's scripted attempts, status, attempts, error,
#: wasted seconds).  One attempt policy, three ways of running it.
ATTEMPT_POLICY = [
    ("serial", [], "ran", 1, None, 0.0),
    ("serial", ["raise"], "ran", 2, None, 0.05),
    ("serial", ["raise"] * (RETRIES + 1), "failed", 2, RAISED, 0.10),
    ("serial", ["timeout"], "failed", 1, TIMED_OUT, 0.05),
    ("pool", [], "ran", 1, None, 0.0),
    ("pool", ["raise"], "ran", 2, None, 0.05),
    ("pool", ["raise"] * (RETRIES + 1), "failed", 2, RAISED, 0.10),
    ("pool", ["timeout"], "failed", 1, TIMED_OUT, 0.05),
    ("pool", ["crash"], "ran", 2, None, 0.0),
    ("endgame", BROKEN_ROUNDS, "ran", 3, None, 0.0),
    ("endgame", BROKEN_ROUNDS + ["raise"], "failed", 3, RAISED, 0.05),
    ("endgame", BROKEN_ROUNDS + ["timeout"], "failed", 3, TIMED_OUT, 0.05),
    ("endgame", BROKEN_ROUNDS + ["crash"], "ran", 4, None, 0.0),
    ("endgame", BROKEN_ROUNDS + ["crash"] * (RETRIES + 1), "failed", 4, CRASHED, 0.0),
]


class TestAttemptPolicy:
    """What one attempt's outcome means is the same decision whether the
    cell runs inline, in a shared pool, or alone in the crash endgame:
    timeouts are never retried, errors are retried ``retries`` times, a
    crash is charged to a cell only once it provably ran alone."""

    @pytest.mark.parametrize(
        "driver, script, status, attempts, error, wasted",
        ATTEMPT_POLICY,
        ids=[f"{row[0]}:{'-'.join(row[1]) or 'ok'}" for row in ATTEMPT_POLICY],
    )
    def test_scripted_failures_settle_the_same_way(
        self, store, flaky_state, driver, script, status, attempts, error, wasted
    ):
        spec = CampaignSpec(
            name="policy",
            matrices=("wathen100",),
            schemes=("RD", "F0"),
            nranks=(8,),
            fault_loads=(2,),
            scale=0.25,
        )
        (flaky_state / SCRIPT_FILE).write_text(json.dumps(script))
        result = run_campaign(
            spec,
            store=store,
            max_workers=1 if driver == "serial" else 2,
            retries=RETRIES,
            worker=scripted_worker,
        )
        rd = next(r for r in result.results if r.cell.scheme == "RD")
        assert (rd.status, rd.attempts) == (status, attempts)
        if status == "ran":
            assert rd.error is None
            assert rd.wasted_s == pytest.approx(wasted)
        else:
            assert error in rd.error
            assert rd.elapsed_s == pytest.approx(wasted)
        # every scripted attempt was made, and no more than the policy allows
        assert len((flaky_state / "calls").read_text()) == attempts
        # the pool-mates of a crasher are never failed for it
        others = [r for r in result.results if r.cell.scheme != "RD"]
        assert all(r.status == "ran" for r in others)


class TestSharedExperiments:
    """The serial path takes one config at a time and runs all of its
    cells on one Experiment, so the baseline's walk of the fault-free
    trajectory is the one its scheme solves install from — one config
    at a time, and never beyond the run."""

    @pytest.fixture()
    def made(self, monkeypatch):
        """Weak references to every Experiment the runner builds, and
        ``(config, memo)`` for each trajectory memo they hand out."""
        refs: list = []
        memos: list[tuple[ExperimentConfig, TrajectoryMemo]] = []

        class Recorded(Experiment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

            def trajectory(self):
                memo = super().trajectory()
                if all(m is not memo for _, m in memos):
                    memos.append((self.config, memo))
                return memo

        monkeypatch.setattr(runner_module, "Experiment", Recorded)
        return refs, memos

    @staticmethod
    def _live(refs) -> int:
        gc.collect()
        return sum(r() is not None for r in refs)

    def test_each_run_walks_the_same_iterations(self, tiny_spec, made):
        refs, memos = made
        live = []

        class Hook:
            def cell_done(self, result):
                live.append(TestSharedExperiments._live(refs))

        per_run = []
        for _ in range(2):
            built, n_memos = len(refs), len(memos)
            result = run_campaign(tiny_spec, max_workers=1, progress=Hook())
            assert result.n_failed == 0
            assert self._live(refs) == 0  # nothing outlives the run
            run_memos = memos[n_memos:]
            per_run.append((
                len(refs) - built,
                [(m.hits, m.walked) for _, m in run_memos],
            ))
            for r in result.results:
                assert b"TrajectoryMemo" not in pickle.dumps(r.report)
            # each config walks its trajectory once (the baseline), plus
            # at most one cadence step per fault to reach a fault's state
            ff = {
                r.cell.config: r.report.iterations
                for r in result.results
                if r.cell.is_baseline
            }
            assert len(run_memos) == len(ff)
            assert {config for config, _ in run_memos} == set(ff)
            for config, memo in run_memos:
                assert memo.hits > 0
                assert (
                    ff[config]
                    <= memo.walked
                    <= ff[config] + config.n_faults * memo.spacing
                )
        # one Experiment per config, and only the config in flight holds one
        assert per_run[0][0] == len(tiny_spec.experiment_configs())
        assert max(live) == 1
        # the second run finds nothing warm
        assert per_run[0] == per_run[1]

    def test_a_config_whose_baseline_failed_still_drops_its_experiment(
        self, tiny_spec, made, monkeypatch
    ):
        refs, _ = made
        failing, healthy = tiny_spec.experiment_configs()

        class FailingBaseline(runner_module.Experiment):
            @property
            def fault_free(self):
                if self.config == failing:
                    raise RuntimeError("baseline diverged")
                return super().fault_free

        monkeypatch.setattr(runner_module, "Experiment", FailingBaseline)
        live = {}

        class Hook:
            def cell_done(self, result):
                live.setdefault(result.cell.config, []).append(
                    TestSharedExperiments._live(refs)
                )

        result = run_campaign(tiny_spec, max_workers=1, progress=Hook())
        statuses = {(r.cell.config, r.status) for r in result.results}
        assert statuses == {(failing, "failed"), (healthy, "ran")}
        assert refs  # the failing config did build its Experiment
        # the failed config's Experiment is gone before the next starts
        assert live[healthy] == [1] * len(live[healthy])
        assert self._live(refs) == 0

    @pytest.mark.parametrize(
        "where, fire_at",
        [("step_span", 1), ("step_span", 2), ("step_span", 6),
         ("snapshot", 2), ("_put", 3)],
    )
    def test_a_timeout_mid_walk_leaves_the_shared_memo_sound(
        self, where, fire_at, monkeypatch
    ):
        """The cell-timeout alarm fires inside the baseline's walk of
        the trajectory, right after its ``fire_at``-th CG span, state
        snapshot or state insert.  The retried baseline, and the scheme
        cells after it, run on the same Experiment and its half-recorded
        memo: each is the fresh report."""
        cfg = ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
        fresh_ff, _ = execute_cell(CampaignCell(cfg, "FF"))
        calls = []

        def fire():
            calls.append(where)
            if len(calls) == fire_at:
                os.kill(os.getpid(), signal.SIGALRM)

        owner = {"step_span": DistributedCG, "snapshot": Point, "_put": TrajectoryMemo}[
            where
        ]
        real = getattr(owner, where)

        def interrupted(*args):
            out = real(*args)
            fire()
            return out

        if where == "snapshot":  # a classmethod: ``real`` is already bound
            interrupted = staticmethod(interrupted)

        shared = runner_module._SharedExperiments()
        token = runner_module._shared_experiments.set(shared)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(owner, where, interrupted)
                with pytest.raises(CellTimeout):
                    execute_cell(CampaignCell(cfg, "FF"), timeout_s=60.0)
            memo = shared.get(cfg).trajectory()
            assert len(calls) == fire_at
            assert memo.walked < fresh_ff.iterations
            ff, _ = execute_cell(CampaignCell(cfg, "FF"), timeout_s=60.0)
            reports = {
                scheme: execute_cell(CampaignCell(cfg, scheme), baseline=ff)[0]
                for scheme in ("ESR", "RD", "F0")
            }
            assert memo.hits > 0
        finally:
            runner_module._shared_experiments.reset(token)
        assert_reports_identical(ff, fresh_ff)
        for scheme, report in reports.items():
            fresh, _ = execute_cell(CampaignCell(cfg, scheme), baseline=fresh_ff)
            assert_reports_identical(report, fresh, context=scheme)

    def test_pool_workers_and_direct_calls_share_nothing(self, tiny_spec, made):
        cfg = tiny_spec.experiment_configs()[0]
        ff, _ = execute_cell(CampaignCell(cfg, "FF"))
        for scheme in ("RD", "F0", "RD"):
            execute_cell(CampaignCell(cfg, scheme), baseline=ff)
            assert self._live(made[0]) == 0
        assert len(made[0]) == 4

    def test_ledger_probes_see_no_installed_spans(self):
        """The benchmark's per-scheme probes time one scheme on a fresh
        primed Experiment each: the memo must not make them cheaper."""
        cfg = ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25)
        ff = Experiment(cfg).fault_free
        for scheme in ("LI", "CR-D", "RD", "ESR"):
            experiment = Experiment(cfg)
            experiment.prime_baseline(ff)
            experiment.run(scheme)
            installed, walked = experiment.trajectory_counts
            assert installed == 0 and walked > 0


class TestSerialParallelEquality:
    def test_identical_reports_and_tables(self, tiny_spec, tmp_path):
        serial = run_campaign(
            tiny_spec, store=ResultStore(tmp_path / "s"), max_workers=1
        )
        parallel = run_campaign(
            tiny_spec, store=ResultStore(tmp_path / "p"), max_workers=2
        )
        assert serial.n_failed == parallel.n_failed == 0
        for a, b in zip(serial.results, parallel.results):
            assert a.cell == b.cell
            assert_reports_equal(a.report, b.report)
        assert format_normalized_tables(serial) == format_normalized_tables(parallel)

    def test_cached_equals_fresh(self, tiny_spec, store):
        fresh = run_campaign(tiny_spec, store=store, max_workers=2)
        cached = run_campaign(tiny_spec, store=store, max_workers=2)
        assert format_normalized_tables(fresh) == format_normalized_tables(cached)


class TestProgressAndSummary:
    def test_progress_counts_and_eta(self, tiny_spec, store, capsys):
        progress = ProgressReporter(len(tiny_spec), workers=1)
        assert progress.eta_s() is None
        result = run_campaign(
            tiny_spec, store=store, max_workers=1, progress=progress
        )
        assert progress.finished == len(tiny_spec)
        err = capsys.readouterr().err
        assert f"[{len(tiny_spec)}/{len(tiny_spec)}]" in err
        counters = summary_counters(result)
        assert counters["ran"] == len(tiny_spec)
        assert counters["wall_s"] > 0

    def test_summary_lists_every_cell_with_cache_status(self, tiny_spec, store):
        run_campaign(tiny_spec, store=store, max_workers=1)
        resumed = run_campaign(tiny_spec, store=store, max_workers=1)
        text = format_summary(resumed)
        cached_rows = sum(
            1 for line in text.splitlines() if "cached" in line.split()
        )
        assert cached_rows == len(tiny_spec)
        assert "aggregate speedup" in text
        for matrix in tiny_spec.matrices:
            assert matrix in text

    def test_disabled_progress_prints_nothing(self, tiny_spec, store, capsys):
        progress = ProgressReporter(len(tiny_spec), workers=1, enabled=False)
        run_campaign(tiny_spec, store=store, max_workers=1, progress=progress)
        assert capsys.readouterr().err == ""


class TestWastedCompute:
    """Failed attempts must surface the seconds they burned."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cells_carry_their_wasted_seconds(
        self, tiny_spec, store, workers
    ):
        from tests.campaign.helpers import wasteful_worker

        result = run_campaign(
            tiny_spec, store=store, max_workers=workers, worker=wasteful_worker
        )
        failed = [r for r in result.results if r.status == "failed"]
        assert failed, "no RD cells failed"
        for r in failed:
            # 2 attempts (1 retry) x 0.05s each
            assert r.attempts == 2
            assert r.elapsed_s == pytest.approx(0.10)
            assert "RuntimeError: wasted" in r.error
        # the manifest attributes the same wasted compute per cell
        for r in failed:
            cell = result.manifest.cell(r.cell.label)
            assert cell.status == "failed"
            assert cell.wasted_s == pytest.approx(0.10)
        # ...and failed seconds never leak into the compute aggregate
        assert result.compute_s == pytest.approx(
            sum(r.elapsed_s for r in result.results if r.ok)
        )

    def test_progress_line_reports_wasted_seconds(self, tiny_spec):
        import io

        from repro.campaign.runner import CellResult

        cell = tiny_spec.cells()[0]
        stream = io.StringIO()
        progress = ProgressReporter(1, workers=1, stream=stream)
        progress.cell_done(
            CellResult(
                cell=cell, status="failed", elapsed_s=0.1, attempts=2,
                error="RuntimeError: boom",
            )
        )
        line = stream.getvalue()
        assert "(0.10s wasted)" in line
        assert "RuntimeError: boom" in line

    def test_campaign_result_carries_run_id_and_manifest(
        self, tiny_spec, store
    ):
        result = run_campaign(tiny_spec, store=store, run_id="cafecafecafecafe")
        assert result.run_id == "cafecafecafecafe"
        assert result.manifest.run_id == "cafecafecafecafe"
        assert len(result.manifest.cells) == len(result.results)
        assert store.get_manifest("cafecafecafecafe") is not None
