"""``benchmarks.common.sweep``: a paper grid runs as one campaign, and
the result store is its memo."""

import pytest

from benchmarks import common
from repro.campaign import run_campaign
from repro.harness.experiment import Experiment, ExperimentConfig
from tests.differential import assert_reports_identical

MATRICES = ["Kuu", "stencil5"]
SCHEMES = ["RD", "F0"]


@pytest.fixture()
def campaigns(tmp_path, monkeypatch):
    """Every CampaignResult the sweeps of one test produce, on a store
    of its own."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    results = []

    def spy(spec, **options):
        result = run_campaign(spec, **options)
        results.append(result)
        return result

    monkeypatch.setattr(common, "run_campaign", spy)
    return results


def test_reports_are_bitwise_a_direct_run(campaigns):
    grid = common.sweep(MATRICES, SCHEMES, nranks=4, n_faults=2)
    assert list(grid) == MATRICES
    for matrix, reports in grid.items():
        assert list(reports) == ["FF", *SCHEMES]
        exp = Experiment(ExperimentConfig(matrix=matrix, nranks=4, n_faults=2))
        for scheme, report in reports.items():
            direct = exp.run(scheme)
            assert_reports_identical(report, direct, context=f"{matrix}/{scheme}")
            assert report.energy_j == direct.energy_j


def test_a_repeated_grid_is_served_from_the_store(campaigns):
    first = common.sweep(MATRICES, SCHEMES, nranks=4, n_faults=2)
    second = common.sweep(MATRICES, SCHEMES, nranks=4, n_faults=2)
    fresh, cached = campaigns
    assert fresh.n_ran == len(fresh.spec)
    assert cached.n_cached == len(cached.spec)
    for matrix in MATRICES:
        for scheme in ("FF", *SCHEMES):
            assert_reports_identical(second[matrix][scheme], first[matrix][scheme])


def test_several_rank_counts_key_the_grid_by_rank_count(campaigns):
    grid = common.sweep(["Kuu"], ["RD"], nranks=[2, 4], n_faults=2)
    assert list(grid) == [2, 4]
    [result] = campaigns
    assert [config.nranks for config, _ in result.groups()] == [2, 4]


def test_a_failed_cell_raises(campaigns):
    # Kuu has 660 rows: it cannot be spread over 1000 ranks
    with pytest.raises(RuntimeError, match="Kuu/r1000/f10/FF: ValueError"):
        common.sweep(["Kuu"], ["RD"], nranks=1000)
