"""Table 6: validation of the analytical models for matrix x104.

Feeds the Section-3 models the parameters measured from the simulated
experiments (t_C per checkpoint, t_const per reconstruction, the fault
rate) and compares predicted vs measured T_res / P / E_res, all
normalized to fault-free.  The paper's own result: FF and RD match
exactly, the models overestimate T_res/E_res for LI/LSI-DVFS (the
a-priori extra-iteration estimate is generous), and the *relative order*
between schemes is preserved.
"""

from repro.core.models.validation import validate_scheme
from repro.harness.reporting import format_table

from benchmarks.common import COST_STUDY_RANKS, emit, sweep

SCHEMES = ["RD", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"]


def table6_data():
    reports = sweep(
        ["x104"], SCHEMES, nranks=COST_STUDY_RANKS, cr_interval="young"
    )["x104"]
    ff = reports["FF"]
    return [
        validate_scheme(ff, report, nranks=COST_STUDY_RANKS)
        for report in reports.values()
    ]


def test_table6_model_validation(benchmark):
    rows = benchmark.pedantic(table6_data, rounds=1, iterations=1)
    table = [list(v.as_row()) for v in rows]
    text = format_table(
        [
            "scheme",
            "T_res (model)",
            "P (model)",
            "E_res (model)",
            "T_res (exp)",
            "P (exp)",
            "E_res (exp)",
        ],
        table,
        title="Table 6 — model vs experiment, x104-class, normalized to FF",
        precision=2,
    )
    emit("table6_validation", text)

    by_name = {v.scheme: v for v in rows}
    # FF and RD use the same data in model and experiment
    ff, rd = by_name["FF"], by_name["RD"]
    assert ff.model_t_res == ff.exp_t_res == 0.0
    assert abs(rd.model_p - rd.exp_p) < 0.05
    assert abs(rd.model_e_res - rd.exp_e_res) < 0.1
    # models and experiments agree on the power ordering: RD highest
    for s in ("LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"):
        assert rd.model_p > by_name[s].model_p
        assert rd.exp_p > by_name[s].exp_p
    # model predictions are positive and the right order of magnitude
    for s in ("LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"):
        v = by_name[s]
        assert v.model_t_res > 0 and v.model_e_res > 0
        assert v.model_t_res < 10 * max(v.exp_t_res, 0.05)
