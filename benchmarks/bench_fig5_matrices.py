"""Figure 5: iterations to convergence for all 14 matrices, 256
processes, 10 faults, normalized per matrix to the fault-free run.

Shape to reproduce: F0/FI need the most iterations on average, RD the
fewest (none), LI/LSI beat F0/FI by leveraging intermediate results, CR
sits between; per-matrix behaviour varies (for bcsstk06-class matrices
LI performs similar to F0).
"""

from repro.harness.experiment import ITERATION_STUDY_SCHEMES
from repro.harness.normalize import normalize_reports, suite_average
from repro.harness.reporting import format_table
from repro.matrices import suite

from benchmarks.common import ITERATION_STUDY_RANKS, emit, sweep

SCHEMES = ITERATION_STUDY_SCHEMES  # RD F0 FI LI LSI CR-D


def figure5_data():
    grid = sweep(suite.names(), SCHEMES, nranks=ITERATION_STUDY_RANKS)
    return {name: normalize_reports(reports) for name, reports in grid.items()}


def test_figure5_iterations(benchmark):
    per_matrix = benchmark.pedantic(figure5_data, rounds=1, iterations=1)
    rows = [
        [name, *(per_matrix[name][s].iterations for s in SCHEMES)]
        for name in suite.names()
    ]
    avg = ["AVG", *(suite_average(per_matrix, s)["iterations"] for s in SCHEMES)]
    text = format_table(
        ["matrix", *SCHEMES],
        rows + [avg],
        title=(
            "Figure 5 — normalized iterations to convergence "
            f"({ITERATION_STUDY_RANKS} processes, 10 faults, per-matrix FF base)"
        ),
        precision=2,
    )
    emit("fig5_matrices", text)

    averages = {s: suite_average(per_matrix, s)["iterations"] for s in SCHEMES}
    # RD takes the fewest iterations (none extra).
    assert averages["RD"] < 1.01
    # F0/FI take the most on average.
    for s in ("RD", "LI", "LSI", "CR-D"):
        assert averages["F0"] > averages[s]
        assert averages["FI"] > averages[s]
    # LI/LSI beat the fills by a clear margin on average.
    assert averages["LI"] < 0.9 * averages["F0"]
    assert averages["LSI"] < 0.9 * averages["F0"]
    # every cell converged
    for name, norm in per_matrix.items():
        for s in SCHEMES:
            assert norm[s].converged, (name, s)
