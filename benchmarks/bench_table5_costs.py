"""Table 5: time, power, and energy cost of resilience, averaged over
the matrix suite (Young-derived CR cadence, DVFS-optimized FW).

Shape to reproduce: RD = (1, 2, 2); LI-DVFS incurs the least energy
overhead among the *forward* paths and its power sits below 1; CR-M has
the least time overhead except RD; CR-D costs the most of the two CR
variants; RD always consumes the most power.
"""

from repro.harness.experiment import COST_STUDY_SCHEMES
from repro.harness.normalize import normalize_reports, suite_average
from repro.harness.reporting import format_table
from repro.matrices import suite

from benchmarks.common import COST_STUDY_RANKS, emit, sweep

ROW_ORDER = ["FF", "RD", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"]

#: The paper's Table 5, for side-by-side display.
PAPER_TABLE5 = {
    "FF": (1.0, 1.0, 1.0),
    "RD": (1.0, 2.0, 2.0),
    "LI-DVFS": (2.12, 0.84, 1.78),
    "LSI-DVFS": (2.35, 0.81, 1.90),
    "CR-M": (1.83, 0.98, 1.79),
    "CR-D": (2.42, 0.93, 2.25),
}


def table5_data():
    grid = sweep(
        suite.names(), COST_STUDY_SCHEMES, nranks=COST_STUDY_RANKS,
        cr_interval="young",
    )
    return {name: normalize_reports(reports) for name, reports in grid.items()}


def test_table5_resilience_costs(benchmark):
    per_matrix = benchmark.pedantic(table5_data, rounds=1, iterations=1)
    averages = {s: suite_average(per_matrix, s) for s in ROW_ORDER}
    rows = []
    for s in ROW_ORDER:
        a = averages[s]
        pt, pp, pe = PAPER_TABLE5[s]
        rows.append([s, a["time"], pt, a["power"], pp, a["energy"], pe])
    text = format_table(
        ["scheme", "T", "T(paper)", "P", "P(paper)", "E", "E(paper)"],
        rows,
        title=(
            "Table 5 — normalized resilience costs, suite average "
            f"({COST_STUDY_RANKS} procs, 10 faults, Young CR cadence)"
        ),
        precision=2,
    )
    emit("table5_costs", text)

    # RD row is exact by construction
    assert abs(averages["RD"]["time"] - 1.0) < 0.1
    assert abs(averages["RD"]["power"] - 2.0) < 0.05
    assert abs(averages["RD"]["energy"] - 2.0) < 0.2
    # RD always consumes the most power
    for s in ("LI-DVFS", "LSI-DVFS", "CR-M", "CR-D"):
        assert averages["RD"]["power"] > averages[s]["power"]
    # CR-M incurs the least time overhead except RD
    for s in ("LI-DVFS", "LSI-DVFS", "CR-D"):
        assert averages["CR-M"]["time"] <= averages[s]["time"] + 0.05
    # CR-D costs more than CR-M in both time and energy
    assert averages["CR-D"]["time"] > averages["CR-M"]["time"]
    assert averages["CR-D"]["energy"] > averages["CR-M"]["energy"]
    # the DVFS forward paths draw less average power than the FF profile
    assert averages["LI-DVFS"]["power"] < 1.0
    assert averages["LSI-DVFS"]["power"] < 1.0
