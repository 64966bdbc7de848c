"""Model-vs-sim drift: Table 6 as a standing gate.

The paper validates its Section-3 models by comparing predicted and
measured ``T_res``, average ``P`` and ``E_res``, each normalized to the
fault-free run.  With both execution engines speaking the same report
schema, that comparison becomes mechanical: run the same campaign grid
under ``engines=("sim", "analytic")``, pair up cells that differ only in
engine, and diff the three normalized quantities — each engine
normalized against *its own* fault-free baseline, exactly as Table 6
normalizes model and measurement independently.

``repro validate`` prints the resulting table and exits non-zero when
the worst drift exceeds a threshold, which is what the CI smoke job
pins: the models may only drift from the simulator within the documented
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.models.validation import table6_ratios

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.runner import CampaignResult

#: Acceptance envelope for normalized |model - sim| drift on the
#: validation preset (worst observed there: ~0.14, on CR-D's expected-
#: vs-actual rollback positions).  The residual drift comes from the
#: models' a-priori stand-ins for measured quantities — mid-interval
#: rollback expectations, the restart-gap convergence-delay bound — the
#: same deliberate approximations behind Table 6's "over estimates T_res
#: and E_res" caveat.  Structural divergence (wrong power fractions,
#: broken interval policy, mis-parameterised t_C) blows well past it.
DEFAULT_DRIFT_THRESHOLD = 0.25


@dataclass(frozen=True)
class DriftRow:
    """One grid point's model-vs-sim comparison (Table-6 style)."""

    matrix: str
    scheme: str
    nranks: int
    n_faults: int
    seed: int
    scale: float
    #: Normalized (T_res/T_ff, P/P_ff, E_res/E_ff) per engine.
    sim: tuple[float, float, float]
    analytic: tuple[float, float, float]

    @property
    def drift_t(self) -> float:
        return abs(self.analytic[0] - self.sim[0])

    @property
    def drift_p(self) -> float:
        return abs(self.analytic[1] - self.sim[1])

    @property
    def drift_e(self) -> float:
        return abs(self.analytic[2] - self.sim[2])

    @property
    def max_drift(self) -> float:
        return max(self.drift_t, self.drift_p, self.drift_e)


@dataclass(frozen=True)
class TermDrift:
    """One Section-3 *term's* model-vs-sim comparison at one grid point.

    Where :class:`DriftRow` diffs the aggregate ``T_res``/``P``/``E_res``
    ratios, a term row localizes the divergence to a single phase of the
    decomposition — e.g. ``T_checkpoint`` (Eq. 7's checkpoint-commit
    time) or ``E_extra`` (the convergence-delay energy) — each
    normalized by the engine's own fault-free total, so "the model is
    off" becomes "the model's *rollback* term is off".
    """

    matrix: str
    scheme: str
    nranks: int
    n_faults: int
    term: str
    sim: float
    analytic: float

    @property
    def drift(self) -> float:
        return abs(self.analytic - self.sim)


def _paired_points(groups) -> list[tuple[object, dict, dict]]:
    """``(point, sim_reports, analytic_reports)`` for every grid point
    present under both engines with an FF baseline each.

    ``groups`` is ``[(config, {scheme: report})]`` — the shape
    :meth:`CampaignResult.groups` returns, but accepted raw so analysis
    code can pair arbitrary record collections the same way.
    """
    by_point: dict = {}
    for config, reports in groups:
        point = replace(config, engine="sim")
        by_point.setdefault(point, {})[config.engine] = reports
    out = []
    for point in sorted(
        by_point, key=lambda c: (c.matrix, c.nranks, c.n_faults, c.seed)
    ):
        engines = by_point[point]
        sim = engines.get("sim")
        analytic = engines.get("analytic")
        if not sim or not analytic or "FF" not in sim or "FF" not in analytic:
            continue
        out.append((point, sim, analytic))
    return out


def drift_rows_from_groups(groups) -> list[DriftRow]:
    """Aggregate drift rows from raw ``(config, {scheme: report})`` groups."""
    rows: list[DriftRow] = []
    for point, sim, analytic in _paired_points(groups):
        for scheme in [s for s in sim if s != "FF" and s in analytic]:
            rows.append(
                DriftRow(
                    matrix=point.matrix,
                    scheme=scheme,
                    nranks=point.nranks,
                    n_faults=point.n_faults,
                    seed=point.seed,
                    scale=point.scale,
                    sim=table6_ratios(sim["FF"], sim[scheme]),
                    analytic=table6_ratios(analytic["FF"], analytic[scheme]),
                )
            )
    return rows


def drift_rows(result: "CampaignResult") -> list[DriftRow]:
    """Pair sim/analytic cells of one campaign into drift rows.

    Only grid points present under *both* engines (with an FF baseline
    each) produce rows; anything else is skipped, so a partially failed
    campaign still yields the comparisons it can support.
    """
    return drift_rows_from_groups(result.groups())


def term_drift_rows_from_groups(groups) -> list[TermDrift]:
    """Per-phase drift terms from raw ``(config, {scheme: report})``
    groups: one ``T_<phase>``/``E_<phase>`` row per resilience phase
    either engine charged, normalized against each engine's own FF run."""
    from repro.power.energy import PhaseTag

    rows: list[TermDrift] = []
    for point, sim, analytic in _paired_points(groups):
        sim_ff, ana_ff = sim["FF"], analytic["FF"]
        for scheme in [s for s in sim if s != "FF" and s in analytic]:
            sim_rep, ana_rep = sim[scheme], analytic[scheme]
            for tag in PhaseTag:
                if not tag.is_resilience:
                    continue
                if (
                    tag not in sim_rep.account.charges
                    and tag not in ana_rep.account.charges
                ):
                    continue
                for term, sim_v, ana_v in (
                    (
                        f"T_{tag.value}",
                        sim_rep.account.time(tag) / sim_ff.time_s,
                        ana_rep.account.time(tag) / ana_ff.time_s,
                    ),
                    (
                        f"E_{tag.value}",
                        sim_rep.account.energy(tag) / sim_ff.energy_j,
                        ana_rep.account.energy(tag) / ana_ff.energy_j,
                    ),
                ):
                    rows.append(
                        TermDrift(
                            matrix=point.matrix,
                            scheme=scheme,
                            nranks=point.nranks,
                            n_faults=point.n_faults,
                            term=term,
                            sim=sim_v,
                            analytic=ana_v,
                        )
                    )
    return rows


def term_drift_rows(result: "CampaignResult") -> list[TermDrift]:
    """Per-term drift rows for a finished campaign."""
    return term_drift_rows_from_groups(result.groups())


def max_drift(rows: list[DriftRow]) -> float:
    """Worst normalized drift over the whole table (0.0 when empty)."""
    return max((r.max_drift for r in rows), default=0.0)


def format_drift_table(rows: list[DriftRow]) -> str:
    """Render drift rows as the Table-6-style text block the CLI prints."""
    if not rows:
        return "no comparable sim/analytic cell pairs"
    header = (
        f"{'matrix':<14} {'scheme':<9} {'r':>4} {'f':>3} "
        f"{'T_res s/a':>15} {'P s/a':>15} {'E_res s/a':>15} {'drift':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.matrix:<14} {r.scheme:<9} {r.nranks:>4} {r.n_faults:>3} "
            f"{r.sim[0]:>7.3f}/{r.analytic[0]:<7.3f} "
            f"{r.sim[1]:>7.3f}/{r.analytic[1]:<7.3f} "
            f"{r.sim[2]:>7.3f}/{r.analytic[2]:<7.3f} "
            f"{r.max_drift:>7.3f}"
        )
    return "\n".join(lines)


def format_term_drift_table(rows: list[TermDrift]) -> str:
    """Render per-term drift rows, worst terms first."""
    if not rows:
        return "no comparable sim/analytic cell pairs"
    header = (
        f"{'matrix':<14} {'scheme':<9} {'r':>4} {'f':>3} "
        f"{'term':<14} {'sim':>9} {'analytic':>9} {'drift':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in sorted(rows, key=lambda r: -r.drift):
        lines.append(
            f"{r.matrix:<14} {r.scheme:<9} {r.nranks:>4} {r.n_faults:>3} "
            f"{r.term:<14} {r.sim:>9.4f} {r.analytic:>9.4f} {r.drift:>7.3f}"
        )
    return "\n".join(lines)
