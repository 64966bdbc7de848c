"""``--seed`` fully determines the generated inputs."""

import json

import workloads
from repro.campaign import CampaignSpec


def cell_list(seed, **kwargs):
    spec = CampaignSpec(**workloads.grid_spec_args(seed, quick=False, **kwargs))
    return json.dumps([[c.label, c.config.trace] for c in spec.cells()])


def request_list(plans):
    return json.dumps([[r.fields for r in plan] for plan in plans], sort_keys=True)


def test_same_seed_same_cells_other_seed_other_order():
    for kwargs in ({}, {"engines": ("sim", "analytic"), "trace": True}):
        assert cell_list(3, **kwargs) == cell_list(3, **kwargs)
        assert cell_list(0, **kwargs) != cell_list(1, **kwargs)
        # the seed orders the grid; it never changes what is in it
        assert sorted(json.loads(cell_list(0, **kwargs))) == sorted(
            json.loads(cell_list(1, **kwargs))
        )


def test_grid_is_the_documented_one():
    spec = CampaignSpec(**workloads.grid_spec_args(5, quick=False))
    assert len(spec) == 21
    assert {c.config.seed for c in spec.cells()} == {0}
    stored = CampaignSpec(**workloads.grid_spec_args(5, quick=False, config_seed=5))
    assert {c.config.seed for c in stored.cells()} == {5}
    both = CampaignSpec(
        **workloads.grid_spec_args(0, quick=False, engines=("sim", "analytic"))
    )
    assert 2 * len(both) == 84


def test_hot_cells_are_the_seeds_own_and_walks_are_seeded_per_connection():
    requests = workloads.hot_requests(5, 8)
    assert len({r.key for r in requests}) == 64
    assert {r.cell.config.seed for r in requests} == set(range(40, 48))
    assert not {r.key for r in requests} & {r.key for r in workloads.hot_requests(6, 8)}
    a = workloads.hot_plans(5, requests, 2)
    assert request_list(a) == request_list(workloads.hot_plans(5, requests, 2))
    assert request_list(a) != request_list(workloads.hot_plans(6, requests, 2))
    assert len(a) == workloads.CONNECTIONS and a[0] != a[1]
    for plan in a:  # every walk visits every cell once
        assert sorted(r.key for r in plan[:64]) == sorted(r.key for r in requests)
        assert plan[:64] == plan[64:]


def test_cold_requests_never_repeat():
    a = workloads.cold_plans(2, 0, 112)
    assert request_list(a) == request_list(workloads.cold_plans(2, 0, 112))
    assert request_list(a) != request_list(workloads.cold_plans(3, 0, 112))
    seen = set()
    for seed in (0, 1, 2):
        for rep in range(40):
            keys = {r.key for plan in workloads.cold_plans(seed, rep, 112) for r in plan}
            assert len(keys) == 112 and not keys & seen
            seen |= keys
    # one scheme per config: nothing to coalesce or micro-batch
    configs = [r.cell.config for plan in a for r in plan]
    assert len(set(configs)) == len(configs)
