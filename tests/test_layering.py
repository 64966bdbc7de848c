"""The read side never loads the compute side.

A process that only reads stored results — the benchmark's start-up
probe, a resume over a fully cached store, ``repro report`` and
``repro trace`` — must not import ``scipy.sparse`` or the solver stack,
and a resume no process-pool machinery either.  Each check runs in a
fresh interpreter, since this test process has imported everything long
ago.  ``repro doctor`` is not covered: its ``model_divergence`` detector
runs the analytic model.  Nor does reading build what it does not read:
a stored traced report builds its telemetry only when a field of it is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.core.backends import backend_names, make_backend
from repro.core.cg import DistributedCG
from repro.core.recovery import make_scheme, scheme_names
from repro.core.recovery.base import RecoveryScheme
from repro.engines import engine_names, make_engine
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.generators import stencil_5pt
from repro.matrices.partition import BlockRowPartition

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules only a solve (or a model evaluation) may load.
COMPUTE_SIDE = (
    "scipy.sparse",
    "repro.core.solver",
    "repro.core.recovery.interpolation",
    "repro.engines.sim",
    "repro.engines.analytic",
    "repro.matrices.generators",
)

#: Modules only a campaign that builds a worker pool may load.
POOL_SIDE = ("multiprocessing", "concurrent.futures.process")

#: A small traced grid under both engines: the stored fixture.
SPEC = {
    "matrices": ["wathen100"],
    "schemes": ["LI", "RD", "ESR"],
    "nranks": [8],
    "fault_loads": [2],
    "engines": ["sim", "analytic"],
    "scale": 0.25,
    "trace": True,
}

#: The config both children solve for the bit-identity check.
CONFIG = {"matrix": "wathen100", "nranks": 8, "n_faults": 2, "scale": 0.25}

#: What the benchmark's probe imports and does, then a resume over the
#: full store, then ``report`` and ``trace`` on it; then one solve.
READ_THEN_SOLVE = f"""
import contextlib, io, json, sys

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.harness.experiment import Experiment, ExperimentConfig

spec, root = CampaignSpec(**json.loads(sys.argv[1])), sys.argv[2]
cells = spec.cells()
with ResultStore(root) as store:
    result = run_campaign(spec, store=store, max_workers=2)
pooled = [m for m in {POOL_SIDE!r} if m in sys.modules]
from repro.cli import main

codes = []
for command in ("report", "trace"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main([command, "--store", root]))
loaded = [m for m in {COMPUTE_SIDE!r} if m in sys.modules]
print(json.dumps({{"cached": result.n_cached, "cells": len(cells),
                  "codes": codes, "loaded": loaded, "pooled": pooled}}))

from repro.campaign.serialize import report_json

config = ExperimentConfig(**json.loads(sys.argv[3]))
print(report_json(Experiment(config).run("LI")))
"""

SOLVE = """
import json, sys

from repro.campaign.serialize import report_json
from repro.harness.experiment import Experiment, ExperimentConfig

config = ExperimentConfig(**json.loads(sys.argv[1]))
print(report_json(Experiment(config).run("LI")))
"""


def _child(code: str, *args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=100,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def full_store(tmp_path_factory) -> str:
    root = tmp_path_factory.mktemp("layering") / "cache"
    with ResultStore(root) as store:
        result = run_campaign(CampaignSpec(**SPEC), store=store)
    assert result.n_failed == 0
    return str(root)


@pytest.fixture(scope="module")
def read_then_solve(full_store) -> tuple[dict, str]:
    """The reader child's summary and the report it solved last."""
    summary, report = _child(
        READ_THEN_SOLVE, json.dumps(SPEC), full_store, json.dumps(CONFIG)
    )
    return json.loads(summary), report


class TestReadSide:
    def test_a_reader_loads_no_compute_module(self, read_then_solve):
        summary, _ = read_then_solve
        assert summary["cached"] == summary["cells"] == 8
        assert summary["codes"] == [0, 0]
        assert summary["loaded"] == []

    def test_a_cached_resume_loads_no_pool_module(self, read_then_solve):
        summary, _ = read_then_solve
        assert summary["cached"] == summary["cells"]
        assert summary["pooled"] == []

    def test_stored_telemetry_builds_only_when_a_field_is_read(
        self, full_store, monkeypatch
    ):
        from repro.campaign.serialize import report_to_dict
        from repro.obs import export

        built = []
        real = export.telemetry_from_dict
        monkeypatch.setattr(
            export, "telemetry_from_dict", lambda d: built.append(d) or real(d)
        )
        with ResultStore(full_store) as store:
            result = run_campaign(CampaignSpec(**SPEC), store=store)
            assert result.n_cached == len(result.results) == 8
            for r in result.results:
                report_to_dict(r.report)
            assert built == []
            for field in ("events", "spans", "metrics"):
                for n, r in enumerate(result.results, 1):
                    entry = store.get_entry(r.cell)
                    getattr(entry.report.details["telemetry"], field)
                    assert len(built) == n
                built.clear()

    def test_a_solve_after_reading_matches_a_fresh_process(self, read_then_solve):
        _, after_reading = read_then_solve
        (fresh,) = _child(SOLVE, json.dumps(CONFIG))
        assert after_reading == fresh

    def test_importing_a_package_imports_none_of_its_modules(self):
        packages = sorted(
            ".".join(p.parent.relative_to(SRC).parts)
            for p in (SRC / "repro").rglob("__init__.py")
        )
        code = (
            "import sys\n"
            + "".join(f"import {p}\n" for p in packages)
            + "print('\\n'.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'repro')))"
        )
        assert _child(code) == sorted([*packages, "repro._exports"])


class TestEveryNameBuilds:
    """The name tables list without importing; each name still builds."""

    @pytest.mark.parametrize("name", scheme_names())
    def test_scheme(self, name):
        assert isinstance(make_scheme(name), RecoveryScheme)

    @pytest.mark.parametrize("name", engine_names())
    def test_engine(self, name):
        assert make_engine(name).name == name

    @pytest.mark.parametrize("name", backend_names())
    def test_backend(self, name):
        a = stencil_5pt(8)
        cg = DistributedCG(
            DistributedMatrix(a, BlockRowPartition(a.shape[0], 4)),
            np.ones(a.shape[0]),
            backend=name,
        )
        assert make_backend(name, cg).name == name
