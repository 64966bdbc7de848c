"""Grid expansion and presets."""

import pytest

from repro.campaign.spec import (
    BASELINE_SCHEME,
    CampaignCell,
    CampaignSpec,
    preset,
    preset_names,
)
from repro.harness.experiment import ExperimentConfig
from repro.matrices import suite


class TestExpansion:
    def test_cell_count_matches_len(self, tiny_spec):
        cells = tiny_spec.cells()
        assert len(cells) == len(tiny_spec) == 2 * (1 + 2)

    def test_baseline_first_in_every_group(self, tiny_spec):
        cells = tiny_spec.cells()
        by_config = {}
        for cell in cells:
            by_config.setdefault(cell.config, []).append(cell.scheme)
        assert len(by_config) == 2
        for schemes in by_config.values():
            assert schemes[0] == BASELINE_SCHEME
            assert schemes[1:] == ["RD", "F0"]

    def test_expansion_is_deterministic(self, tiny_spec):
        assert tiny_spec.cells() == tiny_spec.cells()

    def test_full_grid_dimensions(self):
        spec = CampaignSpec(
            matrices=("Kuu", "ex15"),
            schemes=("RD",),
            nranks=(4, 8),
            fault_loads=(2, 5),
            seeds=(0, 1, 2),
        )
        assert len(spec) == 2 * 2 * 2 * 3 * (1 + 1)
        configs = spec.experiment_configs()
        assert len(set(configs)) == len(configs) == 24

    def test_cells_carry_spec_scalars(self, tiny_spec):
        for cell in tiny_spec.cells():
            assert cell.config.scale == 0.25
            assert cell.config.nranks == 8
            assert cell.config.n_faults == 2

    def test_explicit_ff_not_duplicated(self):
        spec = CampaignSpec(
            matrices=("Kuu",), schemes=("FF", "RD"), nranks=(4,)
        )
        schemes = [c.scheme for c in spec.cells()]
        assert schemes == ["FF", "RD"]


class TestValidation:
    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError, match="unknown matrices"):
            CampaignSpec(matrices=("not-a-matrix",))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            CampaignSpec(schemes=("MAGIC",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(matrices=())


class TestPresets:
    def test_known_presets(self):
        assert set(preset_names()) >= {
            "iteration-study",
            "cost-study",
            "dvfs-study",
            "smoke",
        }

    def test_iteration_study_matches_paper_grid(self):
        spec = preset("iteration-study")
        assert spec.matrices == tuple(suite.names())
        assert spec.nranks == (256,)
        assert spec.cr_interval == "paper"
        assert "LI" in spec.schemes and "CR-D" in spec.schemes

    def test_cost_study_uses_young_interval(self):
        assert preset("cost-study").cr_interval == "young"

    def test_override_narrows_grid(self):
        spec = preset("iteration-study", matrices=("Kuu",))
        assert spec.matrices == ("Kuu",)
        assert spec.nranks == (256,)  # untouched

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset("nope")


class TestCell:
    def test_label_mentions_the_coordinates(self):
        cell = CampaignCell(
            ExperimentConfig(matrix="Kuu", nranks=8, n_faults=3, seed=7), "LI"
        )
        assert "Kuu" in cell.label
        assert "r8" in cell.label
        assert "f3" in cell.label
        assert "s7" in cell.label
        assert cell.label.endswith("/LI")

    def test_is_baseline(self):
        cfg = ExperimentConfig(matrix="Kuu")
        assert CampaignCell(cfg, "FF").is_baseline
        assert not CampaignCell(cfg, "RD").is_baseline


class TestEngineAxis:
    def test_default_grid_is_sim_only(self, tiny_spec):
        assert tiny_spec.engines == ("sim",)
        assert all(c.config.engine == "sim" for c in tiny_spec.cells())

    def test_engines_multiply_the_grid(self, tiny_spec):
        from dataclasses import replace

        both = replace(tiny_spec, engines=("sim", "analytic"))
        assert len(both) == 2 * len(tiny_spec)
        engines = {c.config.engine for c in both.cells()}
        assert engines == {"sim", "analytic"}

    def test_every_grid_point_appears_under_both_engines(self, tiny_spec):
        from dataclasses import replace

        both = replace(tiny_spec, engines=("sim", "analytic"))
        points = {}
        for config in both.experiment_configs():
            key = (config.matrix, config.nranks, config.n_faults, config.seed)
            points.setdefault(key, set()).add(config.engine)
        assert all(v == {"sim", "analytic"} for v in points.values())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            CampaignSpec(matrices=("Kuu",), engines=("warp",))

    def test_empty_engines_rejected(self):
        with pytest.raises(ValueError, match="at least one engine"):
            CampaignSpec(matrices=("Kuu",), engines=())

    def test_rejects_the_removed_backend_axis(self):
        # one execution backend per campaign: the loop reference is the
        # tests' oracle, not a grid axis
        with pytest.raises(TypeError, match="backends"):
            CampaignSpec(matrices=("Kuu",), backends=("loop", "batched"))

    def test_describe_mentions_engines_when_swept(self, tiny_spec):
        from dataclasses import replace

        assert "engines" not in tiny_spec.describe()
        both = replace(tiny_spec, engines=("sim", "analytic"))
        assert "analytic" in both.describe()

    def test_label_marks_non_default_engine_and_scope(self):
        cfg = ExperimentConfig(
            matrix="Kuu", nranks=8, n_faults=3, engine="analytic",
            fault_scope="node",
        )
        cell = CampaignCell(cfg, "LI")
        assert "analytic" in cell.label
        assert "node" in cell.label
        assert "analytic" not in CampaignCell(
            ExperimentConfig(matrix="Kuu"), "LI"
        ).label

    def test_model_validation_preset_sweeps_both_engines(self):
        spec = preset("model-validation")
        assert spec.engines == ("sim", "analytic")
        assert set(spec.schemes) == {"RD", "F0", "FI", "CR-D", "CR-M"}
        assert "model-validation" in preset_names()


#: One two-scheme spec of one grid point, and the lines ``describe()``
#: prints when each axis in turn is swept: the first four axes are
#: always counted, the rest named with their values off the default.
_DESCRIBED = CampaignSpec(
    name="sweep", matrices=("wathen100",), schemes=("RD", "F0"),
    nranks=(8,), fault_loads=(2,), scale=0.25,
)
_HEAD = "campaign 'sweep': "
_TAIL = ", schemes [RD, F0] (+FF) = "


class TestDescribe:
    @pytest.mark.parametrize(
        "axis, values, line",
        [
            ("matrices", ("wathen100", "Kuu"),
             "2 matrices x 1 rank counts x 1 fault loads x 1 seeds"
             f"{_TAIL}6 cells"),
            ("nranks", (8, 16),
             "1 matrices x 2 rank counts x 1 fault loads x 1 seeds"
             f"{_TAIL}6 cells"),
            ("fault_loads", (2, 4),
             "1 matrices x 1 rank counts x 2 fault loads x 1 seeds"
             f"{_TAIL}6 cells"),
            ("seeds", (0, 1),
             "1 matrices x 1 rank counts x 1 fault loads x 2 seeds"
             f"{_TAIL}6 cells"),
            ("engines", ("analytic",),
             "1 matrices x 1 rank counts x 1 fault loads x 1 seeds"
             f" x 1 engines [analytic]{_TAIL}3 cells"),
            ("engines", ("sim", "analytic"),
             "1 matrices x 1 rank counts x 1 fault loads x 1 seeds"
             f" x 2 engines [sim, analytic]{_TAIL}6 cells"),
            ("victims_per_fault", (1, 2),
             "1 matrices x 1 rank counts x 1 fault loads x 1 seeds"
             f" x 2 victim-set sizes [1, 2]{_TAIL}6 cells"),
            ("seeds", (0,),
             "1 matrices x 1 rank counts x 1 fault loads x 1 seeds"
             f"{_TAIL}3 cells"),
        ],
    )
    def test_pins_the_line_for_each_swept_axis(self, axis, values, line):
        from dataclasses import replace

        spec = replace(_DESCRIBED, **{axis: values})
        assert spec.describe() == _HEAD + line


class TestVictimsPerFaultAxis:
    def test_default_axis_is_single_victim(self, tiny_spec):
        assert tiny_spec.victims_per_fault == (1,)
        assert all(
            c.config.victims_per_fault == 1 for c in tiny_spec.cells()
        )

    def test_axis_multiplies_the_grid(self, tiny_spec):
        from dataclasses import replace

        swept = replace(tiny_spec, victims_per_fault=(1, 2))
        assert len(swept) == 2 * len(tiny_spec)
        assert {c.config.victims_per_fault for c in swept.cells()} == {1, 2}

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(matrices=("Kuu",), victims_per_fault=())
        with pytest.raises(ValueError):
            CampaignSpec(matrices=("Kuu",), victims_per_fault=(0,))

    def test_label_marks_multi_victim_cells_only(self):
        multi = CampaignCell(
            ExperimentConfig(matrix="Kuu", victims_per_fault=2), "LI"
        )
        single = CampaignCell(ExperimentConfig(matrix="Kuu"), "LI")
        assert "v2" in multi.label
        assert "v2" not in single.label

    def test_describe_mentions_axis_when_swept(self, tiny_spec):
        from dataclasses import replace

        assert "victim-set" not in tiny_spec.describe()
        swept = replace(tiny_spec, victims_per_fault=(2,))
        assert "victim-set" in swept.describe()

    def test_multi_fault_preset(self):
        spec = preset("multi-fault")
        assert "multi-fault" in preset_names()
        assert spec.victims_per_fault == (2,)
        assert spec.engines == ("sim", "analytic")
        assert {"ESR", "ABCR"} <= set(spec.schemes)


class TestAxisTable:
    @pytest.mark.parametrize("axis", ["nranks", "fault_loads", "seeds"])
    def test_every_empty_axis_is_rejected(self, axis):
        with pytest.raises(ValueError, match="campaign needs at least one"):
            CampaignSpec(matrices=("Kuu",), **{axis: ()})

    def test_axes_coerced_to_tuples(self):
        spec = CampaignSpec(matrices=["Kuu"], nranks=[4], seeds=[0, 1])
        assert spec.matrices == ("Kuu",)
        assert spec.nranks == (4,)
        assert spec.seeds == (0, 1)


def _nested_loop_cells(spec):
    """The documented expansion, written out by hand."""
    out = []
    for matrix in spec.matrices:
        for nranks in spec.nranks:
            for n_faults in spec.fault_loads:
                for seed in spec.seeds:
                    for engine in spec.engines:
                        for victims in spec.victims_per_fault:
                            config = ExperimentConfig(
                                matrix=matrix,
                                nranks=nranks,
                                n_faults=n_faults,
                                seed=seed,
                                scale=spec.scale,
                                tol=spec.tol,
                                cr_interval=spec.cr_interval,
                                trace=spec.trace,
                                engine=engine,
                                victims_per_fault=victims,
                            )
                            out.append(CampaignCell(config, BASELINE_SCHEME))
                            out += [
                                CampaignCell(config, scheme)
                                for scheme in spec.schemes
                                if scheme != BASELINE_SCHEME
                            ]
    return out


TWO_ON_EVERY_AXIS = CampaignSpec(
    name="two-by-every-axis",
    matrices=("Kuu", "ex15"),
    schemes=("RD", "LI"),
    nranks=(4, 8),
    fault_loads=(1, 2),
    seeds=(0, 3),
    engines=("sim", "analytic"),
    victims_per_fault=(1, 2),
    scale=0.5,
    tol=1e-7,
    cr_interval="young",
    trace=True,
)


class TestExpansionIsTheNestedLoop:
    @pytest.mark.parametrize(
        "spec",
        [preset(name) for name in preset_names()] + [TWO_ON_EVERY_AXIS],
        ids=[*preset_names(), "two-on-every-axis"],
    )
    def test_cells_in_order(self, spec):
        expected = _nested_loop_cells(spec)
        assert spec.cells() == expected
        assert len(spec) == len(expected)

    def test_two_on_every_axis_is_the_full_product(self):
        assert len(TWO_ON_EVERY_AXIS) == 2**6 * 3


#: A non-default value for every ExperimentConfig field a label must
#: mark (everything but the three it always names, and ``trace`` and
#: ``backend``, which never change the numbers).
NON_DEFAULT = {
    "seed": (7, "s7"),
    "scale": (0.25, "x0.25"),
    "engine": ("analytic", "analytic"),
    "fault_scope": ("node", "node"),
    "victims_per_fault": (2, "v2"),
    "preconditioner": ("jacobi", "jacobi"),
    "tol": (1e-6, "tol1e-06"),
    "cr_interval": ("young", "cryoung"),
    "construct_tol": (1e-5, "ctol1e-05"),
    "max_iters": (500, "maxit500"),
}


class TestLabelNamesEveryResultChangingField:
    def test_table_covers_every_config_field(self):
        from dataclasses import fields

        named = {"matrix", "nranks", "n_faults", "trace", "backend", *NON_DEFAULT}
        assert {f.name for f in fields(ExperimentConfig)} == named

    @pytest.mark.parametrize("field", list(NON_DEFAULT))
    def test_non_default_field_changes_the_label(self, field):
        from dataclasses import replace

        value, mark = NON_DEFAULT[field]
        base = ExperimentConfig(matrix="Kuu", nranks=8, n_faults=2)
        cell = CampaignCell(replace(base, **{field: value}), "LI")
        assert cell.label == f"Kuu/r8/f2/{mark}/LI"
        assert CampaignCell(base, "LI").label == "Kuu/r8/f2/LI"

    def test_trace_leaves_the_label_alone(self):
        from dataclasses import replace

        base = ExperimentConfig(matrix="Kuu", nranks=8, n_faults=2)
        traced = replace(base, trace=True)
        assert CampaignCell(traced, "LI").label == CampaignCell(base, "LI").label

    def test_backend_leaves_the_label_alone(self):
        from dataclasses import replace

        base = ExperimentConfig(matrix="Kuu", nranks=8, n_faults=2)
        loop = replace(base, backend="loop")
        assert CampaignCell(loop, "LI").label == CampaignCell(base, "LI").label

    def test_marks_keep_their_order(self):
        cfg = ExperimentConfig(
            matrix="Kuu", nranks=8, n_faults=2, seed=1, scale=0.5,
            engine="analytic", fault_scope="node",
            victims_per_fault=2, preconditioner="jacobi", cr_interval=50,
        )
        assert CampaignCell(cfg, "RD").label == (
            "Kuu/r8/f2/s1/x0.5/analytic/node/v2/jacobi/cr50/RD"
        )
