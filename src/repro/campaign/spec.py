"""Declarative campaign specifications.

A campaign is a grid of experiment cells: every combination of
(matrix × rank count × fault load × seed) crossed with a scheme set,
plus the fault-free baseline cell each combination is normalized
against.  :class:`CampaignSpec` expands that grid deterministically;
:func:`preset` names the paper's studies so
``python -m repro.cli campaign --preset iteration-study`` reproduces a
whole section of the evaluation in one command.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.recovery import scheme_names
from repro.engines import engine_names
from repro.harness.experiment import (
    COST_STUDY_SCHEMES,
    ITERATION_STUDY_SCHEMES,
    ExperimentConfig,
)
from repro.matrices import suite as matrix_suite

#: Scheme label of the fault-free baseline cell.
BASELINE_SCHEME = "FF"

#: Each swept axis of a :class:`CampaignSpec`, the ExperimentConfig
#: field its values set, what one value is called, and the prefix that
#: marks a value in a table row (:func:`axis_mark`); expansion order is
#: this order, outermost first.
AXES: dict[str, tuple[str, str, str]] = {
    "matrices": ("matrix", "matrix", ""),
    "nranks": ("nranks", "rank count", "r"),
    "fault_loads": ("n_faults", "fault load", "f"),
    "seeds": ("seed", "seed", "s"),
    "engines": ("engine", "engine", ""),
    "victims_per_fault": ("victims_per_fault", "victim-set size", "v"),
}


def axis_mark(axis: str, config: ExperimentConfig) -> str:
    """How ``config``'s value on ``axis`` is marked in a table row
    (``r8``, ``f2``, ``analytic``, ...)."""
    field, _, prefix = AXES[axis]
    return f"{prefix}{getattr(config, field)}"


_DEFAULT_CONFIG = ExperimentConfig()

#: The axes :meth:`CampaignSpec.describe` always counts, default or not.
_COUNTED_AXES = ("matrices", "nranks", "fault_loads", "seeds")


@dataclass(frozen=True)
class CampaignCell:
    """One (experiment config, scheme) unit of work.

    Frozen, which is what lets :func:`repro.campaign.store.cell_key`
    keep the cell's content hash on the object after the first call,
    and :attr:`label` its label the same way.
    """

    config: ExperimentConfig
    scheme: str

    @property
    def is_baseline(self) -> bool:
        return self.scheme == BASELINE_SCHEME

    @cached_property
    def label(self) -> str:
        """Human-readable cell id used in progress lines and summaries:
        matrix, rank count and fault load, then a mark for every other
        config field that changes a result and is off its default.
        ``trace`` and ``backend`` have no mark: neither changes the
        numbers.  Built once per cell object and kept in its
        ``__dict__``, outside the fields, so eq, hash and repr never
        see it."""
        c, d = self.config, _DEFAULT_CONFIG
        bits = [c.matrix, f"r{c.nranks}", f"f{c.n_faults}"]
        if c.seed != d.seed:
            bits.append(f"s{c.seed}")
        if c.scale != d.scale:
            bits.append(f"x{c.scale:g}")
        if c.engine != d.engine:
            bits.append(c.engine)
        if c.fault_scope != d.fault_scope:
            bits.append(c.fault_scope)
        if c.victims_per_fault != d.victims_per_fault:
            bits.append(f"v{c.victims_per_fault}")
        if c.preconditioner != d.preconditioner:
            bits.append(c.preconditioner)
        if c.tol != d.tol:
            bits.append(f"tol{c.tol:g}")
        if c.cr_interval != d.cr_interval:
            bits.append(f"cr{c.cr_interval}")
        if c.construct_tol != d.construct_tol:
            bits.append(f"ctol{c.construct_tol:g}")
        if c.max_iters != d.max_iters:
            bits.append(f"maxit{c.max_iters}")
        return f"{'/'.join(bits)}/{self.scheme}"


@dataclass(frozen=True)
class CampaignSpec:
    """A full parameter grid over the experiment space.

    ``cells()`` expands to one experiment group per point of the
    :data:`AXES` product (``matrices × nranks × fault_loads × seeds ×
    engines × victims_per_fault``); each group contributes
    one ``FF`` baseline cell followed by one cell per scheme.  Expansion
    order is deterministic (and documented) so serial and parallel
    campaigns agree on cell identity.
    """

    name: str = "custom"
    matrices: tuple[str, ...] = field(default_factory=lambda: tuple(matrix_suite.names()))
    schemes: tuple[str, ...] = ("RD", "F0", "LI", "CR-D")
    nranks: tuple[int, ...] = (16,)
    fault_loads: tuple[int, ...] = (10,)
    seeds: tuple[int, ...] = (0,)
    #: Execution engines to sweep; ``("sim", "analytic")`` runs every
    #: grid point under both, which is what model-vs-sim drift
    #: (:mod:`repro.engines.validate`) pairs up.
    engines: tuple[str, ...] = ("sim",)
    #: Victim-set sizes to sweep: ranks lost simultaneously per fault
    #: event.  ``(1,)`` is the paper's single-failure protocol; larger
    #: entries exercise multi-loss recovery (ESR, union interpolation).
    victims_per_fault: tuple[int, ...] = (1,)
    scale: float = 1.0
    tol: float = 1e-8
    cr_interval: str | int = "paper"
    #: Record per-cell telemetry (events, spans, metrics) and persist it
    #: with each report in the result store.
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise ValueError("campaign needs at least one scheme")
        for axis, (_, noun, _) in AXES.items():
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
            if not getattr(self, axis):
                raise ValueError(f"campaign needs at least one {noun}")
        if any(k < 1 for k in self.victims_per_fault):
            raise ValueError("victims_per_fault entries must be >= 1")
        for axis, known in (
            ("engines", engine_names()),
            ("matrices", matrix_suite.names()),
            ("schemes", [*scheme_names(), BASELINE_SCHEME]),
        ):
            unknown = [v for v in getattr(self, axis) if v not in known]
            if unknown:
                raise ValueError(f"unknown {axis}: {', '.join(unknown)}")

    # ------------------------------------------------------------------
    def experiment_configs(self) -> list[ExperimentConfig]:
        """One config per experiment group, in expansion order."""
        scalars = {
            "scale": self.scale,
            "tol": self.tol,
            "cr_interval": self.cr_interval,
            "trace": self.trace,
        }
        names = [name for name, _, _ in AXES.values()]
        return [
            ExperimentConfig(**scalars, **dict(zip(names, point)))
            for point in itertools.product(*(getattr(self, a) for a in AXES))
        ]

    def cells(self) -> list[CampaignCell]:
        """The full cell list: every group's FF baseline, then schemes."""
        out: list[CampaignCell] = []
        for config in self.experiment_configs():
            out.append(CampaignCell(config, BASELINE_SCHEME))
            out.extend(
                CampaignCell(config, scheme)
                for scheme in self.schemes
                if scheme != BASELINE_SCHEME
            )
        return out

    def __len__(self) -> int:
        n_groups = math.prod(len(getattr(self, axis)) for axis in AXES)
        n_schemes = len([s for s in self.schemes if s != BASELINE_SCHEME])
        return n_groups * (1 + n_schemes)

    def describe(self) -> str:
        """One line naming the grid: how many matrices, rank counts,
        fault loads and seeds it sweeps, then every other axis whose
        values leave the :class:`ExperimentConfig` default, with them."""
        sizes = []
        for axis, (name, noun, _) in AXES.items():
            values = getattr(self, axis)
            size = f"{len(values)} {'matrices' if noun == 'matrix' else noun + 's'}"
            if axis in _COUNTED_AXES:
                sizes.append(size)
            elif values != (getattr(_DEFAULT_CONFIG, name),):
                sizes.append(f"{size} [{', '.join(map(str, values))}]")
        return (
            f"campaign {self.name!r}: {' x '.join(sizes)}, "
            f"schemes [{', '.join(self.schemes)}] (+FF) = {len(self)} cells"
        )


# ----------------------------------------------------------------------
# Named presets for the paper's studies.
#
# Rank counts mirror benchmarks/common.py: the iteration study uses the
# paper's 256 processes (iteration counts are scale-invariant); the cost
# and DVFS studies preserve the paper's rows-per-rank on our ~10x
# smaller stand-ins with 24 ranks (one node).
_PRESETS: dict[str, CampaignSpec] = {
    # Section 5.2 (Figure 5, Table 4): normalized iterations over the
    # suite, CR pinned to the paper's fixed 100-iteration cadence.
    "iteration-study": CampaignSpec(
        name="iteration-study",
        schemes=tuple(ITERATION_STUDY_SCHEMES),
        nranks=(256,),
        fault_loads=(10,),
        cr_interval="paper",
    ),
    # Section 5.3 (Table 5, Figure 8): time/power/energy costs with
    # Young-interval checkpointing.
    "cost-study": CampaignSpec(
        name="cost-study",
        schemes=tuple(COST_STUDY_SCHEMES),
        nranks=(24,),
        fault_loads=(10,),
        cr_interval="young",
    ),
    # Section 5.4 (Figure 7): forward recovery with and without the
    # DVFS power schedule during reconstruction.
    "dvfs-study": CampaignSpec(
        name="dvfs-study",
        schemes=("LI", "LI-DVFS", "LSI", "LSI-DVFS"),
        nranks=(24,),
        fault_loads=(10,),
        cr_interval="young",
    ),
    # Tiny grid for CI smoke runs and local sanity checks.
    "smoke": CampaignSpec(
        name="smoke",
        matrices=("wathen100", "Andrews"),
        schemes=("RD", "F0"),
        nranks=(8,),
        fault_loads=(2,),
        scale=0.25,
    ),
    # Concurrent rank failures (arXiv:1907.13077's multi-loss protocol):
    # two ranks die in each fault event.  ESR reconstructs both exactly;
    # union interpolation and rollback schemes give the comparison
    # points.  Both engines, so ``repro validate`` gates the multi-fault
    # models too.
    "multi-fault": CampaignSpec(
        name="multi-fault",
        matrices=("wathen100", "Andrews"),
        schemes=("ESR", "ABCR", "LI", "LSI", "CR-M", "RD"),
        nranks=(8,),
        fault_loads=(2,),
        victims_per_fault=(2,),
        engines=("sim", "analytic"),
        scale=0.25,
    ),
    # Table 6 as a standing gate: the same small grid under both
    # engines; ``repro validate`` pairs the cells and reports normalized
    # T_res / P / E_res drift per scheme (see repro.engines.validate).
    "model-validation": CampaignSpec(
        name="model-validation",
        matrices=("wathen100", "Andrews"),
        schemes=("RD", "F0", "FI", "CR-D", "CR-M"),
        nranks=(8,),
        fault_loads=(2,),
        engines=("sim", "analytic"),
        scale=0.25,
    ),
}


def preset_names() -> list[str]:
    """The named study grids ``preset()`` accepts."""
    return list(_PRESETS)


def preset(name: str, **overrides) -> CampaignSpec:
    """A named study, optionally narrowed (``preset("cost-study",
    matrices=("Kuu",))`` runs one matrix of the cost grid)."""
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; known: {', '.join(_PRESETS)}"
        ) from None
    return replace(spec, **overrides) if overrides else spec
