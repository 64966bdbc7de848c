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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import DEFAULT_BACKEND
from repro.core.recovery import make_scheme, scheme_names
from repro.core.recovery.redundancy import Redundancy
from repro.core.solver import ResilientSolver, SolverConfig
from repro.core.trajectory import TrajectoryMemo
from repro.faults.schedule import EvenlySpacedSchedule
from repro.harness.experiment import Experiment, ExperimentConfig
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
    """RD and TMR repair every fault to the pre-fault state and span
    identically, so whichever runs second walks nothing."""
    config = _config(matrix="banded", n_faults=4, trace=trace)
    shared = _check_sharing(config, "banded", ["RD", "TMR"])
    installed, walked = shared.trajectory_counts
    assert installed == shared.fault_free.iterations
    assert walked == shared.fault_free.iterations


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
    config = _config(matrix="irregular", n_faults=3)
    shared = _check_sharing(config, "irregular", ["F0", "LI", "LSI"])
    installed, _ = shared.trajectory_counts
    first_fault = shared.run("F0").faults[0].iteration
    assert first_fault > 0
    assert installed == 2 * first_fault


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
