"""Figure 3: accuracy and cost of different recovery mechanisms.

The motivating experiment: the Andrews-class matrix under the cost
protocol (Young CR cadence, CR to disk), comparing fault-free execution
against RD, CR-D and the best forward-recovery scheme.  The paper's
observations to reproduce in shape:

* every mechanism reaches the fault-free accuracy;
* each incurs significant time and/or energy overhead (up to ~2x);
* FW consumes the least extra energy of the recovery mechanisms;
* RD adds no time but doubles energy.
"""

from repro.harness.normalize import normalize_reports
from repro.harness.reporting import format_table

from benchmarks.common import COST_STUDY_RANKS, emit, sweep

SCHEMES = ["RD", "CR-D", "LI-DVFS"]


def figure3_data():
    return sweep(
        ["Andrews"], SCHEMES, nranks=COST_STUDY_RANKS, cr_interval="young"
    )["Andrews"]


def test_figure3_overhead(benchmark):
    reports = benchmark.pedantic(figure3_data, rounds=1, iterations=1)
    norm = normalize_reports(reports)
    rows = [
        [
            name,
            rep.final_relative_residual,
            norm[name].time,
            norm[name].energy,
            norm[name].power,
        ]
        for name, rep in reports.items()
    ]
    text = format_table(
        ["scheme", "final relres", "T (norm)", "E (norm)", "P (norm)"],
        rows,
        title="Figure 3 — accuracy and cost of recovery mechanisms (Andrews-class)",
        precision=3,
    )
    emit("fig3_overhead", text)

    # shape checks: every mechanism reaches the target accuracy
    for name, rep in reports.items():
        assert rep.converged, name
        assert rep.final_relative_residual <= 1e-8
    assert norm["RD"].time < 1.05          # RD: no time overhead
    assert norm["RD"].energy > 1.9          # ... but ~2x energy
    fw_extra = norm["LI-DVFS"].energy - 1.0
    assert fw_extra < norm["RD"].energy - 1.0
    assert fw_extra < norm["CR-D"].energy - 1.0  # FW least extra energy
