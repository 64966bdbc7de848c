"""Unit tests for the local construction solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.recovery.localsolve import (
    exact_least_squares,
    local_cg,
    lu_solve_with_stats,
)
from repro.matrices.generators import banded_spd


@pytest.fixture()
def spd_system(rng):
    a = banded_spd(60, 5, dominance=0.1, seed=0)
    x = rng.standard_normal(60)
    return a, a @ x, x


class TestLocalCG:
    def test_solves_spd_system(self, spd_system):
        a, b, x_true = spd_system
        x, stats = local_cg(
            lambda v: a @ v, b, tol=1e-10, max_iters=1000, flops_per_apply=2 * a.nnz
        )
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-7
        assert stats.relative_residual <= 1e-10
        assert stats.iterations > 0

    def test_loose_tolerance_takes_fewer_iterations(self, spd_system):
        a, b, _ = spd_system
        _, tight = local_cg(lambda v: a @ v, b, tol=1e-10, max_iters=1000,
                            flops_per_apply=1.0)
        _, loose = local_cg(lambda v: a @ v, b, tol=1e-2, max_iters=1000,
                            flops_per_apply=1.0)
        assert loose.iterations < tight.iterations

    def test_flops_accounting(self, spd_system):
        a, b, _ = spd_system
        _, stats = local_cg(lambda v: a @ v, b, tol=1e-8, max_iters=1000,
                            flops_per_apply=100.0, dense_flops_per_row=10.0)
        assert stats.flops == pytest.approx(stats.iterations * (100.0 + 10.0 * 60))

    def test_zero_rhs_short_circuits(self):
        x, stats = local_cg(lambda v: v, np.zeros(5), tol=1e-8, max_iters=10,
                            flops_per_apply=1.0)
        assert np.allclose(x, 0)
        assert stats.iterations == 0

    def test_max_iters_cap(self, spd_system):
        a, b, _ = spd_system
        _, stats = local_cg(lambda v: a @ v, b, tol=1e-300, max_iters=3,
                            flops_per_apply=1.0)
        assert stats.iterations == 3

    def test_jacobi_preconditioning_helps_badly_scaled(self, rng):
        """Jacobi-PCG needs far fewer iterations on a badly row-scaled
        normal-equations operator."""
        a = banded_spd(80, 5, dominance=1e-3, seed=1)
        d = sp.diags(np.exp(2.0 * rng.standard_normal(80)))
        m = (d @ a @ d).tocsr()
        b = m @ rng.standard_normal(80)
        diag = m.diagonal()
        _, plain = local_cg(lambda v: m @ v, b, tol=1e-8, max_iters=5000,
                            flops_per_apply=1.0)
        _, pcg = local_cg(lambda v: m @ v, b, tol=1e-8, max_iters=5000,
                          flops_per_apply=1.0, jacobi_diag=diag)
        assert pcg.iterations < plain.iterations

    def test_jacobi_diag_validation(self):
        with pytest.raises(ValueError):
            local_cg(lambda v: v, np.ones(4), tol=1e-8, max_iters=10,
                     flops_per_apply=1.0, jacobi_diag=np.ones(3))
        with pytest.raises(ValueError):
            local_cg(lambda v: v, np.ones(4), tol=1e-8, max_iters=10,
                     flops_per_apply=1.0, jacobi_diag=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            local_cg(lambda v: v, np.ones(4), tol=0.0, max_iters=10, flops_per_apply=1.0)
        with pytest.raises(ValueError):
            local_cg(lambda v: v, np.ones(4), tol=1e-8, max_iters=0, flops_per_apply=1.0)


class TestLU:
    def test_exact_solution(self, spd_system):
        a, b, x_true = spd_system
        x, stats = lu_solve_with_stats(a, b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-10

    def test_fill_statistics(self, spd_system):
        a, b, _ = spd_system
        _, stats = lu_solve_with_stats(a, b)
        assert stats.n == 60
        assert stats.factor_nnz >= a.nnz  # factors carry at least the pattern
        assert stats.factor_flops > 0
        assert stats.solve_flops == pytest.approx(4.0 * stats.factor_nnz)

    def test_bandwidth_estimate(self):
        from repro.core.recovery.localsolve import LuStats

        s = LuStats(n=100, factor_nnz=1000)
        assert s.effective_bandwidth == pytest.approx(5.0)
        assert s.factor_flops == pytest.approx(2 * 100 * 25.0)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            lu_solve_with_stats(sp.random(4, 6, format="csc"), np.ones(4))


class TestExactLeastSquares:
    def test_square_consistent_system(self, spd_system):
        a, b, x_true = spd_system
        x, stats = exact_least_squares(a, b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-6
        assert stats.iterations > 0

    def test_overdetermined_minimiser(self, rng):
        a = sp.random(50, 10, density=0.4, random_state=1).tocsr()
        b = rng.standard_normal(50)
        x, stats = exact_least_squares(a, b)
        dense, *_ = np.linalg.lstsq(a.toarray(), b, rcond=None)
        assert np.allclose(x, dense, atol=1e-6)


class TestLazySparseLinalg:
    """``scipy.sparse.linalg`` (~0.1 s, ``scipy.linalg`` with it) is
    loaded by the exact baselines that call it, not by every launch."""

    SCRIPT = """
import sys
import repro.cli
assert "scipy.sparse.linalg" not in sys.modules, "imported at launch"
from repro.harness.experiment import Experiment, ExperimentConfig
exp = Experiment(ExperimentConfig(matrix="wathen100", nranks=8, n_faults=2, scale=0.25))
li = exp.run("LI")  # the optimized local-CG construction needs none of it
assert li.converged and "scipy.sparse.linalg" not in sys.modules
for scheme in ("LI-LU", "LSI-QR"):
    assert exp.run(scheme).converged, scheme
assert "scipy.sparse.linalg" in sys.modules, "exact baselines did not load it"
print("ok")
"""

    def test_cli_import_leaves_it_out_and_exact_solves_load_it(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[3] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
