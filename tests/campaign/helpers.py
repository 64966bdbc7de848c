"""Shared assertions and picklable fault-injecting workers.

The workers live at module level so ``ProcessPoolExecutor`` can import
them in child processes; their cross-process state (has this cell
already failed once?  which scripted attempt is this?) is a marker file
under the directory named by ``REPRO_TEST_FLAKY_DIR``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.campaign.runner import execute_cell

FLAKY_DIR_ENV = "REPRO_TEST_FLAKY_DIR"


def assert_reports_equal(a, b):
    """Bitwise equality of two SolveReports' measured content."""
    assert a.scheme == b.scheme
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.final_relative_residual == b.final_relative_residual
    assert a.time_s == b.time_s
    assert a.energy_j == b.energy_j
    assert a.baseline_iters == b.baseline_iters
    np.testing.assert_array_equal(a.residual_history, b.residual_history)
    assert a.account.charges == b.account.charges
    assert a.rapl.log.phases == b.rapl.log.phases
    assert a.faults == b.faults
    assert a.traffic == b.traffic


def _first_time_for(cell) -> bool:
    marker = Path(os.environ[FLAKY_DIR_ENV]) / cell.label.replace("/", "_")
    if marker.exists():
        return False
    marker.write_text("failed once")
    return True


def raising_worker(cell, baseline=None, timeout_s=None):
    """Every RD cell raises on its first attempt, then succeeds."""
    if cell.scheme == "RD" and _first_time_for(cell):
        raise RuntimeError("injected transient failure")
    return execute_cell(cell, baseline, timeout_s)


def crashing_worker(cell, baseline=None, timeout_s=None):
    """Every RD cell hard-kills its worker process on the first attempt."""
    if cell.scheme == "RD" and _first_time_for(cell):
        os._exit(13)
    return execute_cell(cell, baseline, timeout_s)


def always_raising_worker(cell, baseline=None, timeout_s=None):
    """FF cells always fail — exercises baseline-failure propagation."""
    if cell.is_baseline:
        raise RuntimeError("baseline always fails")
    return execute_cell(cell, baseline, timeout_s)


def wasteful_worker(cell, baseline=None, timeout_s=None):
    """Every RD cell burns a measurable 0.05s of compute, then fails.

    The failure carries its elapsed seconds the way :func:`execute_cell`
    wraps real solver errors, so the wasted-compute attribution path is
    exercised without sleeping in tests.
    """
    from repro.campaign.runner import CellExecutionError

    if cell.scheme == "RD":
        raise CellExecutionError(f"RuntimeError: wasted {cell.label}", 0.05)
    return execute_cell(cell, baseline, timeout_s)


SCRIPT_FILE = "script.json"


def scripted_worker(cell, baseline=None, timeout_s=None):
    """The RD cell's attempts follow ``script.json`` in the flaky dir: a
    list of ``"ok" | "raise" | "timeout" | "crash"``, one per attempt in
    order, ``"ok"`` once the list runs out.  Failures carry 0.05 wasted
    seconds, the way :func:`execute_cell` would report them."""
    from repro.campaign.runner import CellExecutionError, CellTimeout

    if cell.scheme == "RD":
        state = Path(os.environ[FLAKY_DIR_ENV])
        script = json.loads((state / SCRIPT_FILE).read_text())
        calls = state / "calls"
        n = len(calls.read_text()) if calls.exists() else 0
        calls.write_text("x" * (n + 1))
        action = script[n] if n < len(script) else "ok"
        if action == "raise":
            raise CellExecutionError("RuntimeError: scripted failure", 0.05)
        if action == "timeout":
            raise CellTimeout(f"{cell.label} exceeded its budget", 0.05)
        if action == "crash":
            os._exit(13)
    return execute_cell(cell, baseline, timeout_s)
