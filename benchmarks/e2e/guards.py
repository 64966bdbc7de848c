"""Correctness guards: what makes an answered cell count as failed.

Each ``*_problem`` function returns ``None`` for a good answer and a
one-line reason otherwise; the workloads count every reason as a failed
operation.  ``sim_digest`` hashes simulated statistics only (never host
time), so it is identical on every machine and every run of the same
code, and a numerics change shows up as a changed digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Schemes whose recovery is exact: the faulty run must take exactly the
#: fault-free number of iterations (arXiv:1907.13077 for ESR).
EXACT_RECOVERY_SCHEMES = ("ESR",)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def report_problem(report, *, scheme: str, tol: float, ff_iterations=None):
    """Invariants of one ``SolveReport``."""
    if report is None:
        return "no report"
    if report.scheme != scheme:
        return f"scheme {report.scheme!r}, asked for {scheme!r}"
    if not report.converged:
        return "not converged"
    if not report.final_relative_residual <= tol:
        return f"residual {report.final_relative_residual:g} above tol {tol:g}"
    if (
        scheme in EXACT_RECOVERY_SCHEMES
        and ff_iterations is not None
        and report.iterations != ff_iterations
    ):
        return f"{scheme} took {report.iterations} iterations, FF {ff_iterations}"
    return None


def cell_result_problem(result, *, status: str, ff_iterations=None):
    """One campaign ``CellResult``: right tier, then the report."""
    if result.status != status:
        return f"status {result.status!r}, expected {status!r}: {result.error}"
    return report_problem(
        result.report,
        scheme=result.cell.scheme,
        tol=result.cell.config.tol,
        ff_iterations=ff_iterations,
    )


def reply_problem(reply, *, tier: str, key: str, scheme: str, expected=None):
    """One ``/v1/solve`` reply: right tier, right cell, converged, and —
    where a reference is given — equal to a direct ``Experiment.run``
    (floats survive JSON exactly, so equality is bitwise)."""
    if not isinstance(reply, dict) or "report" not in reply:
        return "malformed reply"
    if reply.get("cache") != tier:
        return f"answered from {reply.get('cache')!r}, expected {tier!r}"
    if reply.get("key") != key:
        return "reply is for another cell"
    report = reply["report"]
    if report.get("scheme") != scheme:
        return f"scheme {report.get('scheme')!r}, asked for {scheme!r}"
    if report.get("converged") is not True:
        return "not converged"
    if expected is not None and report != expected:
        return "differs from a direct Experiment.run"
    return None


def wire_form(report) -> dict:
    """A report as it reads after a trip through the server's JSON."""
    from repro.campaign import report_to_dict

    return json.loads(json.dumps(report_to_dict(report)))


def digest_row(label: str, report) -> list:
    """The simulated statistics of one cell; ``report`` is a
    ``SolveReport`` or its wire form."""
    if isinstance(report, dict):
        energy = sum(joules for _, _, joules in report["account"])
        fields = (report["iterations"], report["time_s"], energy, report["converged"])
    else:
        fields = (report.iterations, report.time_s, report.energy_j, report.converged)
    iterations, time_s, energy_j, converged = fields
    return [label, int(iterations), repr(float(time_s)), repr(float(energy_j)), bool(converged)]


def sim_digest(rows: list[list]) -> str:
    blob = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def golden_note(name: str, digest: str) -> str:
    """How ``digest`` compares with the committed golden — a warning,
    never a failure: a deliberate numerics fix must stay visible without
    breaking the benchmark."""
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        golden = {}
    want = golden.get(name)
    if want is None:
        return f"sim_digest {name} = {digest} (no golden committed)"
    if want == digest:
        return f"sim_digest {name} = {digest} (matches golden)"
    return (
        f"WARNING sim_digest {name} = {digest} differs from golden {want}: "
        "simulated statistics changed"
    )
