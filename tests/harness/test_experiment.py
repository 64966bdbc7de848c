"""Tests for the experiment driver."""

import inspect
import json
from dataclasses import replace

import pytest

from repro.campaign.serialize import report_to_dict
from repro.harness.experiment import (
    COST_STUDY_SCHEMES,
    ITERATION_STUDY_SCHEMES,
    PAPER_CR_INTERVAL,
    Experiment,
    ExperimentConfig,
)
from repro.matrices import cache as problem_cache
from repro.matrices.generators import banded_spd


@pytest.fixture(scope="module")
def small_exp():
    """Experiment on a custom small matrix (fast)."""
    a = banded_spd(200, 7, dominance=5e-3, seed=0)
    return Experiment(
        ExperimentConfig(matrix="custom", nranks=4, n_faults=3), a=a
    )


class TestExperiment:
    def test_fault_free_is_cached(self, small_exp):
        assert small_exp.fault_free is small_exp.fault_free

    def test_ff_alias(self, small_exp):
        assert small_exp.run("FF") is small_exp.fault_free

    def test_run_scheme_converges(self, small_exp):
        report = small_exp.run("LI")
        assert report.converged
        assert report.n_faults == 3
        assert report.baseline_iters == small_exp.fault_free.iterations

    def test_implied_mtbf(self, small_exp):
        assert small_exp.implied_mtbf_s() == pytest.approx(
            small_exp.fault_free.time_s / 3
        )

    def test_implied_mtbf_without_faults(self):
        a = banded_spd(100, 5, dominance=0.05, seed=0)
        exp = Experiment(ExperimentConfig(matrix="c", nranks=2, n_faults=0), a=a)
        with pytest.raises(ValueError):
            exp.implied_mtbf_s()

    def test_paper_cr_interval(self, small_exp):
        report = small_exp.run("CR-M")
        assert report.details["scheme_details"]["interval_iters"] == PAPER_CR_INTERVAL

    def test_young_cr_interval(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(matrix="c", nranks=4, n_faults=3, cr_interval="young"),
            a=a,
        )
        report = exp.run("CR-M")
        interval = report.details["scheme_details"]["interval_iters"]
        assert interval != PAPER_CR_INTERVAL
        assert interval >= 1

    def test_explicit_cr_interval(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(matrix="c", nranks=4, n_faults=2, cr_interval=17), a=a
        )
        report = exp.run("CR-D")
        assert report.details["scheme_details"]["interval_iters"] == 17

    def test_builds_suite_matrix_by_name(self):
        exp = Experiment(
            ExperimentConfig(matrix="Kuu", nranks=4, n_faults=0, scale=0.3)
        )
        assert exp.a.shape[0] == max(16, round(660 * 0.3))

    def test_deterministic(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        cfg = ExperimentConfig(matrix="c", nranks=4, n_faults=2)
        r1 = Experiment(cfg, a=a).run("F0")
        r2 = Experiment(cfg, a=a).run("F0")
        assert r1.iterations == r2.iterations
        assert r1.energy_j == r2.energy_j


class TestBaselineCache:
    """One baseline per Experiment: every knob that shapes it is in the
    frozen config, so two configs never share one."""

    @pytest.fixture()
    def exp(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        return Experiment(
            ExperimentConfig(matrix="custom", nranks=4, n_faults=2), a=a
        )

    def test_unknown_preconditioner_is_rejected(self):
        with pytest.raises(ValueError, match="unknown preconditioner 'ilu'"):
            ExperimentConfig(preconditioner="ilu")

    def test_preconditioner_is_part_of_the_cell_key(self, exp):
        from repro.campaign import CampaignCell, cell_key

        pcg = replace(exp.config, preconditioner="jacobi")
        assert cell_key(CampaignCell(pcg, "FF")) != cell_key(
            CampaignCell(exp.config, "FF")
        )

    def test_preconditioner_changes_the_baseline(self, exp):
        pcg = Experiment(replace(exp.config, preconditioner="jacobi"), a=exp.a)
        assert pcg.fault_free.iterations != exp.fault_free.iterations

    def test_engines_never_share_baselines(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        cfg = ExperimentConfig(matrix="custom", nranks=4, n_faults=2)
        sim = Experiment(cfg, a=a)
        ff_sim = sim.fault_free
        ana = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=4, n_faults=2, engine="analytic"
            ),
            a=a,
        )
        assert ana.fault_free is not ff_sim
        assert ana.fault_free.details["engine"] == "analytic"

    def test_prime_rejects_mismatched_engine_provenance(self, exp):
        ff = exp.fault_free
        ana = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=4, n_faults=2, engine="analytic"
            ),
            a=exp.a,
        )
        with pytest.raises(ValueError, match="produced by the 'sim' engine"):
            ana.prime_baseline(ff)

    def test_prime_refuses_unstamped_reports(self, exp):
        """Every report is stamped with its engine; one without the
        stamp is refused like a mismatched one, not taken as sim."""
        ff = exp.fault_free
        details = {k: v for k, v in ff.details.items() if k != "engine"}
        fresh = Experiment(exp.config, a=exp.a)
        with pytest.raises(ValueError, match="produced by the None engine"):
            fresh.prime_baseline(replace(ff, details=details))

    def test_prime_rejects_non_ff_reports(self, exp):
        with pytest.raises(ValueError, match="FF report"):
            exp.prime_baseline(exp.run("RD"))

    def test_engine_instance_must_match_config(self, exp):
        from repro.engines import AnalyticEngine

        with pytest.raises(ValueError, match="does not match"):
            Experiment(exp.config, a=exp.a, engine=AnalyticEngine())


class TestIdentityTripwire:
    """Whatever can change a report is in ``ExperimentConfig`` and so in
    the cell key.  This is the knob half of that rule; the config half
    is ``test_every_config_field_is_key_material`` in
    tests/campaign/test_store.py."""

    def test_experiment_takes_no_knob_outside_the_config(self):
        params = list(inspect.signature(Experiment.__init__).parameters)
        assert params == ["self", "config", "a", "engine"], (
            "Experiment.__init__ grew a parameter: put it in `ExperimentConfig` "
            "(and the cell key) or show it cannot change a report"
        )

    @staticmethod
    def _traced_li_payload(*, cold: bool = True) -> str:
        if cold:
            problem_cache.clear_memory_caches()
        config = ExperimentConfig(
            matrix="wathen100", nranks=8, n_faults=2, scale=0.25, trace=True
        )
        report = Experiment(config).run("LI")
        return json.dumps(report_to_dict(report), sort_keys=True)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_CACHE", "0"),
            ("REPRO_CACHE_DIR", None),  # relocated to a fresh directory
        ],
    )
    def test_cache_environment_cannot_change_a_report(
        self, name, value, tmp_path, monkeypatch
    ):
        default = self._traced_li_payload()
        monkeypatch.setenv(name, value or str(tmp_path / "elsewhere"))
        assert self._traced_li_payload() == default

    def test_a_warm_in_process_cache_gives_the_cold_payload(self):
        cold = self._traced_li_payload()
        hits = problem_cache.cache_stats()["matrices"]["hits"]
        warm = self._traced_li_payload(cold=False)
        # the second run was served from the in-process layers
        assert problem_cache.cache_stats()["matrices"]["hits"] > hits
        assert warm == cold


class TestFaultScope:
    def test_default_scope_loses_one_rank(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(matrix="custom", nranks=8, n_faults=1), a=a
        )
        assert exp.fault_scope_victims() == 1

    def test_system_scope_loses_every_rank(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=8, n_faults=1, fault_scope="system"
            ),
            a=a,
        )
        assert exp.fault_scope_victims() == 8

    def test_node_scope_is_capped_by_the_topology(self):
        """30 ranks on 24-core nodes: a node fault takes out at most a
        full node's worth of ranks."""
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=30, n_faults=1, fault_scope="node"
            ),
            a=a,
        )
        assert exp.fault_scope_victims() == 24

    def test_schedule_events_carry_the_scope(self):
        from repro.faults.events import FaultScope

        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=8, n_faults=2, fault_scope="node"
            ),
            a=a,
        )
        events = exp.schedule().events(nranks=8, horizon_iters=100)
        assert all(e.scope is FaultScope.NODE for e in events)

    def test_wider_scope_costs_more(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        base = dict(matrix="custom", nranks=8, n_faults=2)
        process = Experiment(ExperimentConfig(**base), a=a).run("LI")
        system = Experiment(
            ExperimentConfig(**base, fault_scope="system"), a=a
        ).run("LI")
        assert system.time_s > process.time_s


class TestConfigValidation:
    def test_bad_cr_interval_string(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cr_interval="daily")

    def test_bad_cr_interval_int(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cr_interval=0)

    def test_bad_fault_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_faults=-1)

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentConfig(engine="abacus")

    def test_bad_fault_scope(self):
        with pytest.raises(ValueError, match="fault_scope"):
            ExperimentConfig(fault_scope="rack")

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentConfig(backend="gpu")

    def test_bad_victims_per_fault(self):
        with pytest.raises(ValueError):
            ExperimentConfig(victims_per_fault=0)
        with pytest.raises(ValueError, match="exceeds nranks"):
            ExperimentConfig(nranks=8, victims_per_fault=9)

    def test_victims_per_fault_reaches_the_schedule(self):
        a = banded_spd(200, 7, dominance=5e-3, seed=0)
        exp = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=8, n_faults=2, victims_per_fault=3
            ),
            a=a,
        )
        events = exp.schedule().events(nranks=8, horizon_iters=100)
        assert events
        assert all(len(e.victims) == 3 for e in events)
        assert exp.fault_scope_victims() == 3

    def test_fewer_rows_than_ranks_rejected_with_context(self):
        # the tiny-n edge surfaces at Experiment construction with the
        # matrix/scale/nranks named, not deep inside the first solve
        a = banded_spd(12, 3, dominance=0.01, seed=0)
        with pytest.raises(ValueError, match="only 12 rows"):
            Experiment(
                ExperimentConfig(matrix="custom", nranks=16, n_faults=1), a=a
            )
        with pytest.raises(ValueError, match="lower nranks or raise scale"):
            Experiment(
                ExperimentConfig(matrix="custom", nranks=16, n_faults=1), a=a
            )

    def test_scaled_suite_matrix_below_rank_count_rejected(self):
        # a suite matrix shrunk below the rank count trips the same
        # guard, naming the scale that caused it
        cfg = ExperimentConfig(
            matrix="wathen100", nranks=64, n_faults=1, scale=0.001
        )
        with pytest.raises(ValueError, match="wathen100.*scale 0.001"):
            Experiment(cfg)


class TestSchemeSets:
    def test_iteration_study_matches_figure5(self):
        assert ITERATION_STUDY_SCHEMES == ["RD", "F0", "FI", "LI", "LSI", "CR-D"]

    def test_cost_study_matches_table5(self):
        assert COST_STUDY_SCHEMES == ["RD", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"]
