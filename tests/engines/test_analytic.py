"""AnalyticEngine: closed-form reports that mirror the simulator's schema."""

import math

import pytest

from repro.campaign.serialize import report_from_dict, report_to_dict
from repro.engines import AnalyticEngine, AnalyticParams, UnsupportedSchemeError
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.matrices.generators import banded_spd
from repro.power.energy import PhaseTag


@pytest.fixture(scope="module")
def matrix():
    return banded_spd(200, 7, dominance=5e-3, seed=0)


def make_exp(matrix, engine="analytic", **cfg_kw):
    defaults = dict(matrix="custom", nranks=4, n_faults=2)
    defaults.update(cfg_kw)
    return Experiment(ExperimentConfig(engine=engine, **defaults), a=matrix)


@pytest.fixture(scope="module")
def ana(matrix):
    return make_exp(matrix)


@pytest.fixture(scope="module")
def sim(matrix):
    return make_exp(matrix, engine="sim")


class TestFaultFree:
    def test_horizon_matches_the_simulated_baseline(self, ana, sim):
        assert ana.fault_free.iterations == sim.fault_free.iterations

    def test_horizon_is_partition_independent(self, matrix):
        assert (
            make_exp(matrix, nranks=8).fault_free.iterations
            == make_exp(matrix, nranks=4).fault_free.iterations
        )

    def test_account_totals_equal_report_time(self, ana):
        ff = ana.fault_free
        assert ff.account.total_time_s == pytest.approx(ff.time_s)

    def test_converged_with_model_residual_envelope(self, ana):
        ff = ana.fault_free
        assert ff.converged
        assert ff.final_relative_residual == ana.config.tol
        assert len(ff.residual_history) == 2

    def test_baseline_is_cached(self, ana):
        assert ana.fault_free is ana.fault_free


class TestSchemes:
    def test_faults_match_the_sim_schedule(self, ana, sim):
        assert ana.run("LI").faults == sim.run("LI").faults

    def test_rd_doubles_power_exactly(self, ana):
        ff, rd = ana.fault_free, ana.run("RD")
        assert rd.average_power_w == pytest.approx(2 * ff.average_power_w)
        assert rd.resilience_energy_j == pytest.approx(ff.energy_j)
        assert rd.resilience_time_s == 0.0

    def test_checkpoint_charges_checkpoint_and_extra(self, ana):
        cr = ana.run("CR-D")
        assert cr.account.charges[PhaseTag.CHECKPOINT].time_s > 0
        assert cr.account.charges[PhaseTag.EXTRA].time_s > 0
        details = cr.details["scheme_details"]
        assert details["checkpoints_written"] >= 1
        assert details["interval_iters"] >= 1

    def test_forward_charges_reconstruct(self, ana):
        li = ana.run("LI")
        assert li.account.charges[PhaseTag.RECONSTRUCT].time_s > 0
        assert li.details["model"]["t_const_s"] > 0
        assert li.iterations > ana.fault_free.iterations

    def test_fill_schemes_skip_construction(self, ana):
        f0 = ana.run("F0")
        assert PhaseTag.RECONSTRUCT not in f0.account.charges
        assert f0.details["model"]["t_const_s"] == 0.0

    def test_fill_delay_is_the_restart_gap(self, ana):
        """F0's convergence delay redoes the Krylov progress each restart
        discards: with the last fault at iteration i, the gaps sum to i."""
        f0 = ana.run("F0")
        gap_iters = f0.faults[-1].iteration
        assert f0.iterations == ana.fault_free.iterations + gap_iters

    def test_dvfs_variant_reduces_energy_and_counts_transitions(self, ana):
        li, li_dvfs = ana.run("LI"), ana.run("LI-DVFS")
        assert li_dvfs.resilience_energy_j < li.resilience_energy_j
        assert li.details["dvfs_transitions"] == 0
        assert li_dvfs.details["dvfs_transitions"] == (2 * 4 + 1) * 2

    def test_rapl_covers_every_positive_phase(self, ana):
        cr = ana.run("CR-M")
        names = {p.tag for p in cr.rapl.log.phases}
        assert {"iteration", "checkpoint", "extra"} <= names

    def test_multilevel_checkpoint_unsupported(self, ana):
        with pytest.raises(UnsupportedSchemeError, match="sim engine"):
            ana.run("CR-ML")

    def test_zero_faults_add_no_resilience_time(self, matrix):
        exp = make_exp(matrix, n_faults=0)
        li = exp.run("LI")
        assert li.resilience_time_s == 0.0
        assert li.iterations == exp.fault_free.iterations

    def test_node_scope_widens_the_blast_radius(self, matrix):
        li_proc = make_exp(matrix, nranks=8).run("LI")
        li_sys = make_exp(matrix, nranks=8, fault_scope="system").run("LI")
        assert (
            li_sys.details["scheme_details"]["recoveries"]
            > li_proc.details["scheme_details"]["recoveries"]
        )
        assert li_sys.resilience_time_s > li_proc.resilience_time_s

    def test_reports_survive_json_round_trip(self, ana):
        cr = ana.run("CR-D")
        back = report_from_dict(report_to_dict(cr))
        assert back.account.charges == cr.account.charges
        assert back.details["model"] == cr.details["model"]
        assert back.faults == cr.faults


class TestTelemetry:
    @pytest.fixture(scope="class")
    def traced(self, matrix):
        exp = make_exp(matrix, trace=True)
        return exp, exp.run("LI")

    def test_trace_attached(self, traced):
        _, li = traced
        assert "telemetry" in li.details

    def test_one_fault_and_recovery_event_per_fault(self, traced):
        exp, li = traced
        log = li.details["telemetry"].events
        assert len(log.faults) == exp.config.n_faults
        assert len(log.recoveries) == exp.config.n_faults

    def test_phase_metrics_mirror_the_account(self, traced):
        _, li = traced
        m = li.details["telemetry"].metrics
        for tag, charge in li.account.charges.items():
            assert m.counter("phase.time_s", phase=tag.value).value == (
                pytest.approx(charge.time_s)
            )

    def test_event_times_are_monotone(self, traced):
        _, li = traced
        times = [e.sim_time_s for e in li.details["telemetry"].events.events]
        assert times == sorted(times)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AnalyticParams(extra_fraction_per_fault=-0.1)
        with pytest.raises(ValueError):
            AnalyticParams(construct_iteration_constant=0.0)

    def test_custom_extra_fraction_scales_the_delay(self, matrix):
        low = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=4, n_faults=2, engine="analytic"
            ),
            a=matrix,
            engine=AnalyticEngine(AnalyticParams(extra_fraction_per_fault=0.01)),
        )
        high = Experiment(
            ExperimentConfig(
                matrix="custom", nranks=4, n_faults=2, engine="analytic"
            ),
            a=matrix,
            engine=AnalyticEngine(AnalyticParams(extra_fraction_per_fault=0.5)),
        )
        assert high.run("LI").resilience_time_s > low.run("LI").resilience_time_s

    def test_params_recorded_in_details(self, ana):
        li = ana.run("LI")
        assert li.details["model"]["extra_fraction_per_fault"] == (
            AnalyticParams().extra_fraction_per_fault
        )
        assert math.isfinite(li.details["model"]["rate_per_s"])
