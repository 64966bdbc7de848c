"""Figure 7: power reduction and energy savings with LI-DVFS/LSI-DVFS.

(a) power profile of the nd24k-class matrix on a single 24-core node
with plain LI vs LI-DVFS: DVFS cuts the reconstruction-phase node power
by ~39-40% with no performance impact.

(b) average normalized time / power / energy over the 14-matrix suite
with and without DVFS, plus the E_res/E_solve ratio: DVFS keeps T flat
and reduces E (the paper reports -11% for LI, -16% for LSI).
"""

import numpy as np

from repro.core.recovery import make_scheme
from repro.core.solver import ResilientSolver, SolverConfig
from repro.faults.schedule import FixedIterationSchedule
from repro.harness.normalize import normalize_reports, suite_average
from repro.harness.reporting import format_table
from repro.matrices import suite

from benchmarks.common import COST_STUDY_RANKS, emit, experiment, sweep

NODE_RANKS = 24  # one dual-socket node


def power_profile_data():
    """(a): single-node LI vs LI-DVFS with one mid-solve fault."""
    exp = experiment("nd24k", nranks=NODE_RANKS, n_faults=0)
    ff = exp.fault_free
    schedule = FixedIterationSchedule(
        iterations=[ff.iterations // 2], victims=[5]
    )
    out = {}
    for name in ("LI", "LI-DVFS"):
        solver = ResilientSolver(
            exp.a,
            exp.b,
            scheme=make_scheme(name, construct_tol=1e-6),
            schedule=schedule,
            config=SolverConfig(nranks=NODE_RANKS, baseline_iters=ff.iterations),
        )
        report = solver.solve()
        compute_w = solver.power_compute_w()
        recon = report.account
        from repro.power.energy import PhaseTag

        recon_t = recon.time(PhaseTag.RECONSTRUCT)
        recon_w = (
            recon.energy(PhaseTag.RECONSTRUCT) / recon_t if recon_t > 0 else 0.0
        )
        out[name] = (report, compute_w, recon_w)
    return out


def suite_dvfs_data():
    """(b): suite averages with and without DVFS."""
    schemes = ("LI", "LSI", "LI-DVFS", "LSI-DVFS")
    grid = sweep(
        suite.names(), schemes, nranks=COST_STUDY_RANKS, cr_interval="young"
    )
    per_matrix = {}
    ratios = {}
    for name, reports in grid.items():
        per_matrix[name] = normalize_reports(reports)
        ratios[name] = {
            s: reports[s].account.resilience_ratio()
            for s in schemes
        }
    return per_matrix, ratios


def test_figure7a_power_profile(benchmark):
    out = benchmark.pedantic(power_profile_data, rounds=1, iterations=1)
    rows = []
    for name, (report, compute_w, recon_w) in out.items():
        rows.append(
            [name, compute_w, recon_w, recon_w / compute_w, report.iterations]
        )
    text = format_table(
        ["scheme", "compute W", "reconstruct W", "ratio", "iterations"],
        rows,
        title=(
            "Figure 7(a) — node power during reconstruction, nd24k-class, "
            "one 24-core node"
        ),
        precision=3,
    )
    emit("fig7a_power_profile", text)

    li_report, li_compute, li_recon = out["LI"]
    dv_report, dv_compute, dv_recon = out["LI-DVFS"]
    # identical performance
    assert dv_report.iterations == li_report.iterations
    # plain LI: ~0.75x of compute power; LI-DVFS: ~0.45x during the
    # construction window (Section 4.2).  The measured reconstruct phase
    # also contains the full-power rhs gather, so allow a little slack.
    assert li_recon / li_compute == rounded(0.75, 0.04)
    assert dv_recon / dv_compute == rounded(0.46, 0.06)
    # DVFS cuts reconstruction-phase power by ~35-40%
    assert 0.30 < 1 - dv_recon / li_recon < 0.45


def rounded(x, tol=0.03):
    import pytest

    return pytest.approx(x, abs=tol)


def test_figure7b_suite_energy_savings(benchmark):
    per_matrix, ratios = benchmark.pedantic(suite_dvfs_data, rounds=1, iterations=1)
    rows = []
    for s in ("LI", "LI-DVFS", "LSI", "LSI-DVFS"):
        avg = suite_average(per_matrix, s)
        res_ratio = float(np.mean([r[s] for r in ratios.values()]))
        rows.append([s, avg["time"], avg["power"], avg["energy"], res_ratio])
    text = format_table(
        ["scheme", "T", "P", "E", "E_res/E_solve"],
        rows,
        title=(
            "Figure 7(b) — suite-average normalized time/power/energy "
            f"({COST_STUDY_RANKS} procs, 10 faults, FF=1)"
        ),
        precision=3,
    )
    emit("fig7b_energy_savings", text)

    li = suite_average(per_matrix, "LI")
    li_dvfs = suite_average(per_matrix, "LI-DVFS")
    lsi = suite_average(per_matrix, "LSI")
    lsi_dvfs = suite_average(per_matrix, "LSI-DVFS")
    # same performance
    assert li_dvfs["time"] == rounded(li["time"], 0.01)
    assert lsi_dvfs["time"] == rounded(lsi["time"], 0.01)
    # DVFS saves energy and power
    assert li_dvfs["energy"] <= li["energy"]
    assert lsi_dvfs["energy"] <= lsi["energy"]
    assert li_dvfs["power"] <= li["power"]
    # more energy goes to solving: E_res/E_solve shrinks
    mean_ratio = lambda s: float(np.mean([r[s] for r in ratios.values()]))
    assert mean_ratio("LI-DVFS") <= mean_ratio("LI")
    assert mean_ratio("LSI-DVFS") <= mean_ratio("LSI")
