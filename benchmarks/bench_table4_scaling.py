"""Table 4: normalized iterations to converge under various parallel
settings for matrix crystm02 (4, 16, 64, 256 processes, 10 faults).

The paper's finding: for a fixed-size problem, each recovery mechanism's
normalized iteration count is essentially constant across process
counts, and the scheme ordering (RD = 1 < LI/LSI/CR < F0/FI) holds at
every count.
"""

import numpy as np

from repro.harness.experiment import ITERATION_STUDY_SCHEMES
from repro.harness.normalize import normalize_reports
from repro.harness.reporting import format_table

from benchmarks.common import emit, sweep

PROCESS_COUNTS = [4, 16, 64, 256]
SCHEMES = ITERATION_STUDY_SCHEMES


def table4_data():
    grid = sweep(["crystm02"], SCHEMES, nranks=PROCESS_COUNTS)
    return {p: normalize_reports(reports) for p, reports in grid.items()}


def test_table4_parallel_invariance(benchmark):
    data = benchmark.pedantic(table4_data, rounds=1, iterations=1)
    rows = [
        [p, 1.0, *(data[p][s].iterations for s in SCHEMES)]
        for p in PROCESS_COUNTS
    ]
    text = format_table(
        ["#p", "FF", *SCHEMES],
        rows,
        title="Table 4 — normalized iterations vs process count (crystm02-class)",
        precision=2,
    )
    emit("table4_scaling", text)

    # RD is exactly the fault-free count at every process count
    for p in PROCESS_COUNTS:
        assert data[p]["RD"].iterations == 1.0

    # the fills are the worst at every count, by a clear margin over LI
    for p in PROCESS_COUNTS:
        assert data[p]["F0"].iterations > data[p]["LI"].iterations
    # LSI's interpolant weakens when a single fault wipes 25% of the
    # system (p=4); from 16 processes up it clearly beats the fills
    for p in PROCESS_COUNTS[1:]:
        assert data[p]["FI"].iterations > data[p]["LSI"].iterations

    # near-invariance across process counts: the spread of each scheme's
    # normalized iterations over p stays modest (paper: constant; the
    # fault wound shrinks as blocks shrink, so allow a loose band)
    for s in SCHEMES:
        vals = np.array([data[p][s].iterations for p in PROCESS_COUNTS])
        assert vals.max() - vals.min() <= 0.5, (s, vals)
