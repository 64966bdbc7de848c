"""Observability fixtures: one real traced faulty solve, shared."""

from __future__ import annotations

import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs.analysis import RunRecord


@pytest.fixture(scope="session")
def traced_li():
    """(config, report) of a traced LI run with two faults."""
    config = ExperimentConfig(
        matrix="wathen100", nranks=8, n_faults=2, scale=0.25, trace=True
    )
    return config, Experiment(config).run("LI")


@pytest.fixture()
def traced_record(traced_li):
    """The traced run wrapped as the analysis-layer RunRecord."""
    config, report = traced_li
    return RunRecord("wathen100/r8/f2/x0.25/LI", report, config)
