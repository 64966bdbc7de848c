"""Trajectory sharing: a config's scheme solves walk the fault-free CG
trajectory once, and no report can tell (DESIGN.md §5e).

The contract is bitwise: one ``Experiment`` running every scheme (so
later solves install spans an earlier one walked) must produce reports
and telemetry identical to a fresh ``Experiment`` per scheme, which
never shares anything.  Random small configs cover every scheme, every
fault scope, victim sets and tracing; an adversarial scheme whose
repair is one ulp off shows a solve leaves the trajectory at the first
state it cannot prove.

Set ``REPRO_TEST_BACKEND=loop`` to run the file on the rank-by-rank
backend (CI runs both).
"""

from __future__ import annotations

import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import trajectory
from repro.core.backends import DEFAULT_BACKEND
from repro.core.cg import DistributedCG
from repro.core.recovery import make_scheme, scheme_names
from repro.core.recovery.redundancy import Redundancy
from repro.core.solver import ResilientSolver, SolverConfig
from repro.core.trajectory import Point, TrajectoryMemo
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.matrices import cache as problem_cache
from repro.matrices.generators import stencil_5pt
from tests.differential import (
    PerIterationSolver,
    assert_reports_identical,
    assert_telemetry_identical,
    build,
)

BACKEND = os.environ.get("REPRO_TEST_BACKEND", DEFAULT_BACKEND)
SCHEMES = scheme_names()


def _config(**kw) -> ExperimentConfig:
    kw.setdefault("nranks", 8)
    kw.setdefault("n_faults", 3)
    return ExperimentConfig(backend=BACKEND, **kw)


def _outcome(experiment: Experiment, scheme: str):
    """A report, or the exception a scheme legitimately fails with."""
    try:
        return experiment.run(scheme)
    except Exception as exc:  # e.g. ESR beyond its redundancy bound
        return exc


def _assert_same(shared, fresh, context: str) -> None:
    if isinstance(fresh, Exception):
        assert type(shared) is type(fresh), context
        assert str(shared) == str(fresh), context
        return
    assert not isinstance(shared, Exception), f"{shared!r}  [{context}]"
    assert_reports_identical(shared, fresh, context=context)
    if "telemetry" in fresh.details:
        assert_telemetry_identical(shared, fresh, context=context)


def _check_sharing(config: ExperimentConfig, matrix: str, schemes) -> Experiment:
    a = build(matrix)
    reference = Experiment(config, a=a)
    shared = Experiment(config, a=a)
    assert_reports_identical(shared.fault_free, reference.fault_free)
    outcomes = {s: _outcome(shared, s) for s in schemes}
    for scheme in schemes:
        fresh = Experiment(config, a=a)
        fresh.prime_baseline(reference.fault_free)
        _assert_same(
            outcomes[scheme], _outcome(fresh, scheme), f"{matrix} {config} {scheme}"
        )
        assert fresh.trajectory_counts[0] == 0  # a lone solve installs nothing
    return shared


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    matrix=st.sampled_from(["banded", "irregular", "stencil"]),
    nranks=st.sampled_from([4, 8]),
    n_faults=st.integers(1, 4),
    fault_scope=st.sampled_from(["process", "node", "system"]),
    victims_per_fault=st.integers(1, 3),
    trace=st.booleans(),
    seed=st.integers(0, 40),
    cr_interval=st.sampled_from([7, 25, "young"]),
    order=st.permutations(SCHEMES),
)
def test_shared_experiment_matches_fresh_ones(
    matrix, nranks, n_faults, fault_scope, victims_per_fault, trace, seed,
    cr_interval, order,
):
    config = _config(
        matrix=matrix,
        nranks=nranks,
        n_faults=n_faults,
        fault_scope=fault_scope,
        victims_per_fault=victims_per_fault,
        trace=trace,
        seed=seed,
        cr_interval=cr_interval,
    )
    _check_sharing(config, matrix, order)


@pytest.mark.parametrize("trace", [False, True])
def test_second_exact_scheme_installs_its_whole_solve(trace):
    """The baseline walks the trajectory once.  RD re-walks at most one
    cadence step per fault to reach each fault's state; TMR repairs and
    spans identically, so it then walks nothing."""
    config = _config(matrix="banded", n_faults=4, trace=trace)
    a = build("banded")
    shared = Experiment(config, a=a)
    ff = shared.fault_free
    assert shared.trajectory_counts == (0, ff.iterations)
    reports = {"RD": shared.run("RD")}
    installed, walked = shared.trajectory_counts
    rewalked = walked - ff.iterations
    assert installed + rewalked == ff.iterations
    assert 0 <= rewalked <= config.n_faults * shared.trajectory().spacing
    reports["TMR"] = shared.run("TMR")
    assert shared.trajectory_counts == (installed + ff.iterations, walked)
    for scheme, report in reports.items():
        fresh = Experiment(config, a=a)
        fresh.prime_baseline(ff)
        _assert_same(report, fresh.run(scheme), scheme)


def test_memo_installed_reports_are_the_oracles():
    """Installed spans are checked against the per-iteration oracle, not
    only against fresh span solves: every report of one Experiment whose
    schemes share the memo is bitwise the oracle's solve of the same
    scheme and schedule."""
    experiment = Experiment(_config(matrix="banded"), a=build("banded"))
    ff = experiment.fault_free
    for scheme in ("RD", "ESR", "ABCR", "LI", "CR-D", "F0"):
        report = experiment.run(scheme)
        oracle = PerIterationSolver(
            experiment.a,
            experiment.b,
            scheme=make_scheme(
                scheme,
                construct_tol=experiment.config.construct_tol,
                **(experiment.cr_kwargs() if scheme in ("CR-D", "ABCR") else {}),
            ),
            schedule=experiment.schedule(),
            config=experiment.solver_config(ff.iterations),
        ).solve()
        assert_reports_identical(
            report, experiment.engine._stamp(oracle), context=scheme
        )
    assert experiment.trajectory_counts[0] > 0


def test_every_scheme_reuses_the_prefix_before_its_first_fault():
    """The first of them re-walks less than one cadence step to reach the
    first fault's state; the other two install the whole prefix."""
    config = _config(matrix="irregular", n_faults=3)
    shared = _check_sharing(config, "irregular", ["F0", "LI", "LSI"])
    installed, walked = shared.trajectory_counts
    rewalked = walked - shared.fault_free.iterations
    first_fault = shared.run("F0").faults[0].iteration
    assert first_fault > 0
    assert installed + rewalked == 3 * first_fault
    assert rewalked < shared.trajectory().spacing


# ----------------------------------------------------------------------
# an adversarial repair: exact but for one ulp
# ----------------------------------------------------------------------
class OneUlpOff(Redundancy):
    """RD whose repair nudges one entry of r by one ulp."""

    def recover(self, services, state, event):
        outcome = super().recover(services, state, event)
        i = services.partition.slice_of(event.victim_rank).start
        state.r[i] = np.nextafter(state.r[i], np.inf)
        return outcome


def _solve(scheme, memo=None, *, trace=False):
    a = build("banded")
    b = a @ np.random.default_rng(3).standard_normal(a.shape[0])
    config = SolverConfig(nranks=8, seed=5, trace=trace, backend=BACKEND)
    ff = ResilientSolver(a, b, config=config).solve()
    config.baseline_iters = ff.iterations
    solver = ResilientSolver(
        a, b, scheme=scheme, schedule=EvenlySpacedSchedule(n_faults=3),
        config=config,
    )
    return solver.solve(trajectory=memo)


@pytest.mark.parametrize("trace", [False, True])
def test_an_inexact_repair_leaves_the_trajectory_at_its_first_fault(trace):
    memo = TrajectoryMemo()
    exact = _solve(Redundancy(), memo, trace=trace)
    assert memo.hits == 0
    off = _solve(OneUlpOff(), memo, trace=trace)
    first_fault = off.faults[0].iteration
    # only the span up to the first fault is installed; the repair is
    # one ulp away from the recorded state, so every later span walks
    assert memo.hits == first_fault
    fresh = _solve(OneUlpOff(), trace=trace)
    assert_reports_identical(off, fresh)
    if trace:
        assert_telemetry_identical(off, fresh)
    # and the nudge is real: the solve is not the exact one's
    assert not np.array_equal(off.residual_history, exact.residual_history)


def test_a_different_problem_never_starts_on_the_trajectory():
    memo = TrajectoryMemo()
    _solve(Redundancy(), memo)
    a = build("stencil")
    b = a @ np.ones(a.shape[0])
    other = ResilientSolver(
        a, b, scheme=Redundancy(), schedule=EvenlySpacedSchedule(n_faults=2),
        config=SolverConfig(nranks=8, backend=BACKEND),
    )
    other.solve(trajectory=memo)
    assert memo.hits == 0


# ----------------------------------------------------------------------
# where the memo lives: on the Experiment, never on a report
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True])
def test_reports_carry_no_memo(trace):
    shared = _check_sharing(
        _config(matrix="stencil", trace=trace), "stencil", ["RD", "ESR"]
    )
    assert shared.trajectory_counts[0] > 0
    for scheme in ("RD", "ESR"):
        assert b"TrajectoryMemo" not in pickle.dumps(shared.run(scheme))


# ----------------------------------------------------------------------
# the memo itself: any walk is plain stepping, bit for bit
# ----------------------------------------------------------------------
def _stepper(matrix: str, backend: str):
    """A factory of fresh CG steppers on one problem object."""
    a = build(matrix)
    b = a @ np.random.default_rng(1).standard_normal(a.shape[0])
    dmat = problem_cache.distributed_matrix(a, 4)
    return lambda: DistributedCG(dmat, b, backend=backend)


def _same_run(walked: DistributedCG, stepped: DistributedCG) -> None:
    assert walked.iteration == stepped.iteration
    assert Point.snapshot(walked.state).matches(stepped.state)
    assert np.array_equal(
        np.asarray(walked.residual_history).view(np.uint64),
        np.asarray(stepped.residual_history).view(np.uint64),
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    matrix=st.sampled_from(["banded", "irregular", "stencil"]),
    backend=st.sampled_from(["batched", "loop"]),
    first_spacing=st.sampled_from([1, 3, 8]),
    budget_points=st.integers(1, 6),
    solves=st.lists(
        st.lists(st.integers(1, 70), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ),
)
def test_any_walk_sequence_is_plain_stepping(
    matrix, backend, first_spacing, budget_points, solves
):
    """Solves of random walk lengths through one memo — starting between
    cadence points, running past convergence, after the budget thinned
    the cadence — are bitwise solves that only call ``step_span``."""
    fresh = _stepper(matrix, backend)
    point_bytes = 3 * 8 * build(matrix).shape[0]
    with mock.patch.multiple(
        trajectory,
        FIRST_SPACING=first_spacing,
        CADENCE_BUDGET_BYTES=budget_points * point_bytes,
    ):
        memo = TrajectoryMemo()
        for lengths in solves:
            walked, stepped = fresh(), fresh()
            assert memo.start(walked) is not None
            for length in lengths:
                point, taken, breakdown = memo.walk(walked, length)
                assert (taken, breakdown) == stepped.step_span(length)
                _same_run(walked, stepped)
                if breakdown:
                    break
                assert point.matches(walked.state)
            assert memo.cadence_bytes <= budget_points * point_bytes


def test_the_cadence_stays_inside_its_budget_on_a_large_matrix():
    """A stencil whose CG state is a third of the budget: the cadence
    thins to at most three states, still spread over the whole walk."""
    a = stencil_5pt(120)
    b = a @ np.ones(a.shape[0])
    dmat = problem_cache.distributed_matrix(a, 4)
    cg = DistributedCG(dmat, b, backend=BACKEND)
    memo = TrajectoryMemo()
    memo.start(cg)
    point, taken, _ = memo.walk(cg, cg.max_iters)
    assert cg.converged and point.iteration == taken
    assert 3 * 8 * a.shape[0] > trajectory.CADENCE_BUDGET_BYTES // 4
    assert 0 < memo.cadence_bytes <= trajectory.CADENCE_BUDGET_BYTES
    assert memo.spacing > trajectory.FIRST_SPACING
    # the thinned cadence still spans the walk: reaching any iteration,
    # here the one before convergence, re-walks less than one spacing
    again = DistributedCG(dmat, b, backend=BACKEND)
    memo.start(again)
    walked = memo.walked
    memo.walk(again, taken - 1)
    assert memo.walked - walked < memo.spacing
    assert memo.cadence_bytes <= trajectory.CADENCE_BUDGET_BYTES


@pytest.mark.parametrize("trace", [False, True])
def test_a_fault_free_solve_through_the_memo_is_bitwise_one_without(trace):
    a = build("irregular")
    b = a @ np.random.default_rng(2).standard_normal(a.shape[0])
    config = SolverConfig(nranks=8, trace=trace, backend=BACKEND)
    plain = ResilientSolver(a, b, config=config).solve()
    memo = TrajectoryMemo()
    walked = ResilientSolver(a, b, config=config).solve(trajectory=memo)
    installed = ResilientSolver(a, b, config=config).solve(trajectory=memo)
    assert (memo.hits, memo.walked) == (plain.iterations, plain.iterations)
    for report in (walked, installed):
        assert_reports_identical(report, plain)
        if trace:
            assert_telemetry_identical(report, plain)


def test_the_horizon_probe_walks_through_the_memo():
    """A scheme solve with no baseline probes the fault-free horizon
    first: through the memo, that probe is the walk every later solve
    installs, and the trajectory is walked once."""
    a = build("banded")
    b = a @ np.random.default_rng(3).standard_normal(a.shape[0])
    schedule = EvenlySpacedSchedule(n_faults=3)

    def rd(memo=None):
        config = SolverConfig(nranks=8, seed=5, backend=BACKEND)
        solver = ResilientSolver(
            a, b, scheme=Redundancy(), schedule=schedule, config=config
        )
        return solver.solve(trajectory=memo)

    memo = TrajectoryMemo()
    first = rd(memo)
    horizon = first.baseline_iters
    assert horizon == first.iterations
    # the probe walked it all; RD re-walked at most a cadence per fault
    assert horizon <= memo.walked <= horizon + 3 * memo.spacing
    assert memo.hits + memo.walked == 2 * horizon
    walked = memo.walked
    second = rd(memo)  # probe and solve both install everything
    assert memo.walked == walked
    for report in (first, second):
        assert_reports_identical(report, rd())
