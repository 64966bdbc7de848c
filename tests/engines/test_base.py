"""Engine registry and interface contract."""

import pytest

from repro.engines import (
    DEFAULT_ENGINE,
    AnalyticEngine,
    ExecutionEngine,
    SimEngine,
    engine_names,
    make_engine,
)


class TestRegistry:
    def test_builtins_registered_default_first(self):
        names = engine_names()
        assert names[0] == DEFAULT_ENGINE == "sim"
        assert "analytic" in names

    def test_make_engine_builds_each_builtin(self):
        assert isinstance(make_engine("sim"), SimEngine)
        assert isinstance(make_engine("analytic"), AnalyticEngine)

    def test_make_engine_instances_are_fresh(self):
        assert make_engine("sim") is not make_engine("sim")

    def test_unknown_engine_names_the_known_ones(self):
        with pytest.raises(KeyError, match="sim"):
            make_engine("fortran")


class TestInterface:
    def test_abstract_methods_enforced(self):
        with pytest.raises(TypeError):
            ExecutionEngine()

    def test_engines_stamp_provenance(self, small_engine_reports):
        for name, (ff, faulty) in small_engine_reports.items():
            assert ff.details["engine"] == name
            assert faulty.details["engine"] == name


@pytest.fixture(scope="module")
def small_engine_reports():
    """(FF, LI) reports from both engines on one tiny experiment."""
    from repro.harness.experiment import Experiment, ExperimentConfig
    from repro.matrices.generators import banded_spd

    a = banded_spd(200, 7, dominance=5e-3, seed=0)
    out = {}
    for name in ("sim", "analytic"):
        exp = Experiment(
            ExperimentConfig(matrix="custom", nranks=4, n_faults=2, engine=name),
            a=a,
        )
        out[name] = (exp.fault_free, exp.run("LI"))
    return out
