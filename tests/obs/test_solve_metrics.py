"""A traced solve's derived metrics are its report's, bit for bit.

Both engines write the ``phase.*`` counters, ``solver.iterations`` and
the ``solver.*`` gauges from the finished report
(:func:`repro.obs.telemetry.write_solve_metrics`), so every traced
report reconciles exactly with its own telemetry.
"""

from __future__ import annotations

import pytest

from repro.core.recovery.factory import scheme_names
from repro.engines.base import analytic_scheme_names
from repro.harness.experiment import Experiment, ExperimentConfig

_CASES = [
    (engine, scheme)
    for engine, names in (
        ("sim", scheme_names()),
        ("analytic", analytic_scheme_names()),
    )
    for scheme in ["FF", *names]
]


@pytest.fixture(scope="module")
def experiments():
    """One traced experiment per engine, shared by its schemes."""
    return {
        engine: Experiment(
            ExperimentConfig(
                matrix="wathen100", scale=0.25, nranks=8, n_faults=3,
                engine=engine, trace=True,
            )
        )
        for engine in ("sim", "analytic")
    }


def _phase_series(counters: dict, name: str) -> dict[str, str]:
    prefix = f"{name}{{phase="
    return {
        key[len(prefix):-1]: value.hex()
        for key, value in counters.items()
        if key.startswith(prefix)
    }


@pytest.mark.parametrize("engine,scheme", _CASES)
def test_derived_metrics_equal_the_report(experiments, engine, scheme):
    report = experiments[engine].run(scheme)
    snap = report.details["telemetry"].metrics.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    charges = report.account.charges
    assert _phase_series(counters, "phase.time_s") == {
        tag.value: c.time_s.hex() for tag, c in charges.items()
    }
    assert _phase_series(counters, "phase.energy_j") == {
        tag.value: c.energy_j.hex() for tag, c in charges.items()
    }
    assert counters["solver.iterations"].hex() == float(report.iterations).hex()
    assert gauges["solver.sim_time_s"].hex() == report.time_s.hex()
    assert gauges["solver.energy_j"].hex() == report.energy_j.hex()
    assert gauges["solver.relative_residual"].hex() == (
        report.final_relative_residual.hex()
    )
    assert gauges["solver.converged"] == (1.0 if report.converged else 0.0)
