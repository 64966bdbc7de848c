"""Shared differential-testing helpers (DESIGN.md §5e, §5j).

The reference every execution is checked against lives here:
:class:`PerIterationSolver`, the per-iteration solve loop kept as a
test oracle.  Each iteration is one ``cg.step()``, one account charge
per phase (each charge of positive time noting its phase entry, as the
solver's ``_emit`` does), one scheme-hook call and one event check —
no spans, no trajectory memo.  The solver itself only ever
runs span-batched; :func:`check_case` runs each differential case
three ways against one oracle solve: span × ``batched`` (production),
span × ``loop``, and per-iteration × ``loop`` (the oracle).

Harnesses fed by this module:

* ``tests/core/test_backend_equivalence.py`` — the three-way grid over
  every scheme, matrix class and schedule kind;
* ``tests/core/test_fast_equivalence.py`` — the span-vs-per-iteration
  cases of that grid under their own test ids;
* ``tests/core/test_trajectory_sharing.py`` — trajectory-memo solves
  against the oracle;
* ``tests/faults`` — the property-based fault-schedule fuzzer.

The helpers compare *every* seed-visible observable of a solve —
report scalars, residual history, phase-tagged energy charges, the
RAPL log, traffic counters, fault lists, scheme details, and (traced)
the metrics snapshot plus the full serialized telemetry — under a
per-field tolerance policy pinned by a golden file.  The default (and,
today, universal) tolerance is **bitwise**: every execution shares the
reduction operators, so no accumulation order differs anywhere.
The ulp-bounded mechanism exists for the day a backend legitimately
reorders a reduction; loosening a field requires editing the golden
policy file, which is exactly the review speed bump it should be.

Failure artifacts: the comparison entry points accept a ``context``
string (fuzz seeds print reproduction instructions through it) and
``dump_divergence`` writes a JSON diff artifact for CI upload.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from repro.core.backends import DEFAULT_BACKEND
from repro.core.recovery.factory import make_scheme
from repro.core.solver import ResilientSolver, SolverConfig
from repro.faults.schedule import (
    EvenlySpacedSchedule,
    FixedIterationSchedule,
    PoissonSchedule,
)
from repro.matrices.generators import banded_spd, irregular_spd, stencil_5pt
from repro.power.energy import PhaseTag

#: The matrix classes every differential matrix sweep runs over: a
#: well-conditioned band, an irregular sparsity pattern (uneven per-rank
#: work and halos), and the classic 5-point stencil.
MATRICES = {
    "banded": lambda: banded_spd(300, 7, dominance=0.01, seed=11),
    "irregular": lambda: irregular_spd(260, 9, dominance=0.02, seed=7),
    "stencil": lambda: stencil_5pt(17),
}

_built: dict[str, object] = {}


def build(name):
    """Memoized matrix construction (the builds dominate suite time)."""
    if name not in _built:
        _built[name] = MATRICES[name]()
    return _built[name]


class PerIterationSolver(ResilientSolver):
    """The per-iteration reference loop: the oracle every span-batched
    execution must match bit for bit.

    One ``cg.step()``, one booking (each account charge of positive
    time notes its phase entry through ``_enter_phase``, the method
    ``_emit`` uses, so the span loop's first-charge transitions are
    checked against a per-charge reference), one hook call and one
    event check per iteration.  The derived metrics are written when
    the solve closes, as for every solve.  A trajectory memo is
    ignored: the oracle walks every iteration itself.
    """

    def _run(self, pending, handled, baseline, trajectory) -> None:
        cg = self.cg
        while not cg.converged and cg.iteration < self.config.max_iters:
            cg.step()
            self._charge_iteration(
                is_extra=baseline is not None and cg.iteration > baseline
            )
            if self.scheme is not None:
                self.scheme.on_iteration_end(self, cg.state)
            self._process_due_events(pending, handled)

    def _charge_iteration(self, is_extra: bool) -> None:
        """Book one CG iteration: account charges split solve/overhead,
        a single merged RAPL phase at the iteration-average power."""
        c = self.costs
        ip = self._iter_power
        mult = self.scheme.energy_multiplier if self.scheme else 1.0
        if is_extra:
            energy = self._charge(PhaseTag.EXTRA, c.wall_s, ip.average_power_w)
        else:
            energy = self._charge(PhaseTag.SOLVE, c.compute_max_s, ip.compute_power_w)
            if c.comm_s > 0:
                energy += self._charge(
                    PhaseTag.OVERHEAD, c.comm_s, self.power_compute_w()
                )
        if mult > 1.0:
            self.account.charge_energy(PhaseTag.REDUNDANT, (mult - 1.0) * energy)
        # Flat overlapped retention cost (ESR's redundant-copy streaming).
        ov = self.scheme.overlap_energy_per_iteration_j if self.scheme else 0.0
        if ov > 0.0:
            self.account.charge_energy(PhaseTag.REDUNDANT, ov)
        t0 = self.comm.now
        self.comm.clocks.synchronize(c.wall_s)
        tag = "extra" if is_extra else "iteration"
        self._rapl_append(tag, t0, self.comm.now, ip.average_power_w * mult)
        self.comm.traffic.bytes_p2p += c.bytes_per_iter
        self.comm.traffic.messages += max(0, len(self._dmat.halo_pair_bytes))
        self.comm.traffic.collectives += 2

    def _charge(self, tag: PhaseTag, time_s: float, power_w: float) -> float:
        """One account charge; a traced one of positive time notes its
        phase entry before the clock advances."""
        energy = self.account.charge(tag, time_s=time_s, power_w=power_w)
        if self.obs is not None and time_s > 0:
            self._enter_phase(tag, self.cg.iteration, self.comm.now)
        return energy


def run_solver(matrix_name: str, scheme_name: str | None, *,
               oracle: bool = False, backend: str = DEFAULT_BACKEND,
               trace: bool = False, schedule=None, nranks: int = 8,
               **cfg_kw):
    """One deterministic resilient solve on a differential fixture.

    ``oracle`` (the per-iteration loop instead of the solver's span
    loop) and ``backend`` are the execution axes under test; everything
    else (matrix, rhs, scheme cadence, fault schedule) is pinned so
    that two calls differing only in an execution axis are comparable
    observable for observable.
    """
    a = build(matrix_name)
    rng = np.random.default_rng(42)
    b = a @ rng.standard_normal(a.shape[0])
    cfg = SolverConfig(
        nranks=nranks, tol=1e-8, seed=5, trace=trace, backend=backend,
        **cfg_kw
    )
    scheme = (
        make_scheme(scheme_name, interval_iters=40) if scheme_name else None
    )
    if schedule is None and scheme is not None:
        schedule = EvenlySpacedSchedule(n_faults=3)
    solver_cls = PerIterationSolver if oracle else ResilientSolver
    solver = solver_cls(a, b, scheme=scheme, schedule=schedule, config=cfg)
    return solver.solve()


# ----------------------------------------------------------------------
# tolerance policy (golden-pinned)
# ----------------------------------------------------------------------

#: The golden per-field tolerance policy for backend equivalence.
GOLDEN_TOLERANCE_PATH = (
    Path(__file__).parent / "core" / "golden" / "backend_tolerance.json"
)


def load_tolerance_policy(path: Path = GOLDEN_TOLERANCE_PATH) -> dict:
    """``{field: {"mode": "bitwise"} | {"mode": "ulp", "max_ulp": N}}``.

    Fields absent from the policy default to bitwise — loosening is
    always an explicit, reviewed edit of the golden file.
    """
    return json.loads(path.read_text())["fields"]


def ulp_distance(a: float, b: float) -> int:
    """Units-in-the-last-place distance between two float64 values."""
    if a == b:
        return 0
    if math.isnan(a) or math.isnan(b):
        return 2**62
    # map the sign-magnitude float bit pattern onto a monotone integer
    # line, so |ia - ib| counts representable doubles between a and b
    ia, ib = (
        i if i >= 0 else -(2**63) - i
        for i in (int(np.float64(v).view(np.int64)) for v in (a, b))
    )
    return abs(ia - ib)


def _check_scalar(name: str, a, b, policy: dict, context: str) -> None:
    rule = policy.get(name, {"mode": "bitwise"})
    if rule["mode"] == "bitwise":
        assert a == b, f"{name}: {a!r} != {b!r} (bitwise){context}"
    else:
        dist = ulp_distance(float(a), float(b))
        assert dist <= rule["max_ulp"], (
            f"{name}: {a!r} vs {b!r} differ by {dist} ulp "
            f"(max {rule['max_ulp']}){context}"
        )


def _check_array(name: str, a, b, policy: dict, context: str) -> None:
    rule = policy.get(name, {"mode": "bitwise"})
    assert len(a) == len(b), f"{name}: length {len(a)} != {len(b)}{context}"
    if rule["mode"] == "bitwise":
        assert np.array_equal(a, b), (
            f"{name}: arrays differ bitwise at indices "
            f"{np.flatnonzero(np.asarray(a) != np.asarray(b))[:8]}{context}"
        )
    else:
        worst = max(
            (ulp_distance(float(x), float(y)) for x, y in zip(a, b)),
            default=0,
        )
        assert worst <= rule["max_ulp"], (
            f"{name}: arrays differ by {worst} ulp "
            f"(max {rule['max_ulp']}){context}"
        )


# ----------------------------------------------------------------------
# report comparison
# ----------------------------------------------------------------------

def assert_reports_identical(fast, legacy, *, context: str = "",
                             policy: dict | None = None):
    """Per-field equality on every seed-visible field of a SolveReport.

    With no ``policy`` every field is compared exactly (``==`` on
    floats, not allclose); a policy loaded from the golden file may
    relax named numeric fields to a ulp bound.
    """
    policy = policy or {}
    if context:
        context = f"  [{context}]"
    assert fast.scheme == legacy.scheme, context
    assert fast.converged == legacy.converged, context
    assert fast.iterations == legacy.iterations, context
    assert fast.baseline_iters == legacy.baseline_iters, context
    # sim time and residuals: exact unless the policy says otherwise
    _check_scalar("time_s", fast.time_s, legacy.time_s, policy, context)
    _check_scalar(
        "final_relative_residual",
        fast.final_relative_residual,
        legacy.final_relative_residual,
        policy,
        context,
    )
    assert fast.residual_history.dtype == legacy.residual_history.dtype
    _check_array(
        "residual_history",
        fast.residual_history,
        legacy.residual_history,
        policy,
        context,
    )
    # phase-tagged energy account, charge by charge
    assert set(fast.account.charges) == set(legacy.account.charges), context
    for tag, c_legacy in legacy.account.charges.items():
        c_fast = fast.account.charges[tag]
        _check_scalar(
            f"account.{tag}.time_s", c_fast.time_s, c_legacy.time_s,
            policy, context,
        )
        _check_scalar(
            f"account.{tag}.energy_j", c_fast.energy_j, c_legacy.energy_j,
            policy, context,
        )
    # RAPL log: same phases, same boundaries, same powers (Phase is a
    # frozen dataclass — equality is exact field equality)
    assert fast.rapl.log.phases == legacy.rapl.log.phases, context
    assert fast.traffic == legacy.traffic, context
    assert fast.faults == legacy.faults, context
    d_fast = {k: v for k, v in fast.details.items() if k != "telemetry"}
    d_legacy = {k: v for k, v in legacy.details.items() if k != "telemetry"}
    assert d_fast == d_legacy, context


def assert_telemetry_identical(a, b, *, context: str = ""):
    """Traced runs: byte-identical metrics snapshot, and events, spans
    and metrics serialized byte for byte alike."""
    from repro.obs.export import telemetry_to_dict

    if context:
        context = f"  [{context}]"
    t_a = a.details["telemetry"]
    t_b = b.details["telemetry"]
    assert t_a.metrics.snapshot() == t_b.metrics.snapshot(), context
    assert json.dumps(telemetry_to_dict(t_a), sort_keys=True) == json.dumps(
        telemetry_to_dict(t_b), sort_keys=True
    ), context


def report_divergence(a, b) -> dict:
    """Field-by-field diff of two reports (for the CI diff artifact)."""
    out: dict = {}
    for name in ("scheme", "converged", "iterations", "baseline_iters",
                 "time_s", "final_relative_residual"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            out[name] = {"a": va, "b": vb}
    if not np.array_equal(a.residual_history, b.residual_history):
        idx = [
            int(i)
            for i in np.flatnonzero(
                np.asarray(a.residual_history[: len(b.residual_history)])
                != np.asarray(b.residual_history[: len(a.residual_history)])
            )[:16]
        ]
        out["residual_history"] = {
            "len_a": len(a.residual_history),
            "len_b": len(b.residual_history),
            "first_divergent_indices": idx,
        }
    tags = set(a.account.charges) | set(b.account.charges)
    for tag in sorted(tags, key=str):
        ca = a.account.charges.get(tag)
        cb = b.account.charges.get(tag)
        if ca is None or cb is None or (ca.time_s, ca.energy_j) != (
            cb.time_s, cb.energy_j
        ):
            out[f"account.{tag}"] = {
                "a": None if ca is None else [ca.time_s, ca.energy_j],
                "b": None if cb is None else [cb.time_s, cb.energy_j],
            }
    if a.traffic != b.traffic:
        out["traffic"] = {"a": repr(a.traffic), "b": repr(b.traffic)}
    if a.faults != b.faults:
        out["faults"] = {"a": repr(a.faults), "b": repr(b.faults)}
    return out


def dump_divergence(a, b, *, label: str,
                    directory: str | Path = "backend-equivalence-diff") -> Path:
    """Write the divergence of two reports as a JSON artifact.

    The CI ``backend-equivalence`` job uploads this directory on
    failure, so a red run ships the exact field-level disagreement.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{label}.json"
    path.write_text(
        json.dumps({"label": label, "divergence": report_divergence(a, b)},
                   indent=2, default=str)
    )
    return path


# ----------------------------------------------------------------------
# the three-way differential case
# ----------------------------------------------------------------------

POLICY = load_tolerance_policy()

_checked: dict[tuple, object] = {}


def check_case(matrix_name: str, scheme_name: str | None, *,
               context: str = "", **kw):
    """Run one case three ways and compare each run to the oracle.

    The executions are span × ``batched`` (production) and span ×
    ``loop``; the reference is the per-iteration oracle on ``loop``.
    Every seed-visible field must agree under the golden policy, and a
    traced case must also have identical telemetry.  On divergence a
    field-level JSON diff is dumped for the CI artifact before the
    assertion re-raises.  Returns the production report.

    A case that passed is remembered for the session, so two harness
    modules naming the same case solve it once.
    """
    key = (matrix_name, scheme_name, tuple(sorted(kw.items())))
    if key in _checked:
        return _checked[key]
    oracle = run_solver(matrix_name, scheme_name, oracle=True, backend="loop", **kw)
    label = f"{matrix_name}-{scheme_name or 'FF'}" + (f"-{context}" if context else "")
    runs = {b: run_solver(matrix_name, scheme_name, backend=b, **kw)
            for b in ("batched", "loop")}
    for backend, report in runs.items():
        where = f"{context or label}: span×{backend} vs per-iteration×loop"
        try:
            assert_reports_identical(report, oracle, context=where, policy=POLICY)
            if kw.get("trace"):
                assert_telemetry_identical(report, oracle, context=where)
        except AssertionError:
            dump_divergence(
                report, oracle, label=f"{label}-{backend}".replace("/", "_")
            )
            raise
    _checked[key] = runs["batched"]
    return runs["batched"]


#: The Poisson cases: seeded random fault times that land mid-span.
POISSON_CASES = {
    "irregular-FI": ("irregular", "FI", {"mtbf_iters": 60}),
    "banded-LI": ("banded", "LI", {"mtbf_iters": 45.0, "horizon_factor": 2.0}),
}


def check_poisson(case: str, seed: int):
    """:func:`check_case` on one Poisson case and seed."""
    matrix, scheme, kw = POISSON_CASES[case]
    return check_case(
        matrix, scheme, schedule=PoissonSchedule(seed=seed, **kw),
        context=f"poisson-{case}-{seed}",
    )


# ----------------------------------------------------------------------
# property-based fault-schedule fuzzing (stdlib random, no new deps)
# ----------------------------------------------------------------------

class FaultScheduleFuzzer:
    """Seeded generator of adversarial fault schedules.

    Every draw mixes the patterns that historically break span-batched
    or backend-restructured execution:

    * an **iteration-0 fault** (damage before any progress);
    * a **simultaneous-rank pair** (two victims at the same iteration,
      exercising the multi-victim neutralise-then-recover path);
    * **back-to-back faults** (the second lands in the first one's
      recovery window, right after a restart);
    * a fault pinned to a **span boundary** (the scheme hook cadence or
      the baseline→EXTRA crossover);
    * plain **mid-span** faults.

    Deterministic per seed: ``generate(seed)`` is a pure function, so a
    failing seed printed by a test reproduces the exact schedule.

    :meth:`generate_multivictim` is the victim-*set* counterpart: every
    event strikes several ranks at once, covering the simultaneous-loss
    patterns (iteration-0 sets, all-ranks-but-one, span-boundary sets)
    that only multi-loss-tolerant schemes can survive.
    """

    def __init__(self, nranks: int, horizon_iters: int, *,
                 hook_interval: int = 40) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        if horizon_iters < 2:
            raise ValueError("horizon too short to place interior faults")
        self.nranks = nranks
        self.horizon_iters = horizon_iters
        self.hook_interval = hook_interval

    def generate(self, seed: int) -> FixedIterationSchedule:
        rng = random.Random(seed)
        h = self.horizon_iters
        events: list[tuple[int, int]] = []

        def victim() -> int:
            return rng.randrange(self.nranks)

        if rng.random() < 0.5:
            events.append((0, victim()))
        if rng.random() < 0.7:
            it = rng.randint(1, h - 1)
            v = victim()
            w = (
                (v + 1 + rng.randrange(self.nranks - 1)) % self.nranks
                if self.nranks > 1
                else v
            )
            events += [(it, v), (it, w)]
        if rng.random() < 0.7:
            it = rng.randint(1, max(h - 2, 1))
            events += [(it, victim()), (it + 1, victim())]
        if rng.random() < 0.6 and h > self.hook_interval:
            k = rng.randint(1, (h - 1) // self.hook_interval)
            events.append((k * self.hook_interval, victim()))
        if rng.random() < 0.4:
            events.append((h - 1, victim()))
        for _ in range(rng.randint(0, 2)):
            events.append((rng.randint(1, h - 1), victim()))
        if not events:
            events.append((rng.randint(1, h - 1), victim()))
        events.sort()
        return FixedIterationSchedule(
            iterations=tuple(it for it, _ in events),
            victims=tuple(v for _, v in events),
        )

    def generate_multivictim(self, seed: int) -> FixedIterationSchedule:
        """Adversarial schedules whose events strike victim *sets*.

        Guarantees, for every seed (``nranks >= 2``):

        * a simultaneous distinct-rank set at **iteration 0** (multiple
          blocks lost before any progress);
        * an **all-ranks-but-one** event (the maximum loss a joint
          reconstruction can still recover from);
        * a **span-boundary** multi-victim event whenever the horizon
          crosses the hook cadence;

        plus up to two random multi-victim fillers.  Victim sets are
        deduplicated per iteration so no ``(iteration, victim)`` pair
        repeats — the schedules stay valid under
        :class:`FixedIterationSchedule`'s duplicate rejection.
        """
        if self.nranks < 2:
            raise ValueError("multi-victim schedules need at least two ranks")
        rng = random.Random(seed)
        h = self.horizon_iters
        used: dict[int, set[int]] = {}
        events: list[tuple[int, tuple[int, ...]]] = []

        def pick_set(size: int) -> tuple[int, ...]:
            return tuple(rng.sample(range(self.nranks), min(size, self.nranks)))

        def add(it: int, vs: tuple[int, ...]) -> None:
            taken = used.setdefault(it, set())
            fresh = tuple(v for v in vs if v not in taken)
            if fresh:
                taken.update(fresh)
                events.append((it, fresh))

        # simultaneous distinct-rank set at iteration 0
        add(0, pick_set(2 + rng.randrange(2)))
        # all-ranks-but-one: one survivor carries the reconstruction
        spare = rng.randrange(self.nranks)
        add(
            rng.randint(1, h - 1),
            tuple(r for r in range(self.nranks) if r != spare),
        )
        # multi-victim event pinned to a hook-cadence span boundary
        if h > self.hook_interval:
            k = rng.randint(1, (h - 1) // self.hook_interval)
            add(k * self.hook_interval, pick_set(2))
        for _ in range(rng.randint(0, 2)):
            add(rng.randint(1, h - 1), pick_set(2))
        events.sort(key=lambda e: e[0])
        return FixedIterationSchedule(
            iterations=tuple(it for it, _ in events),
            victims=tuple(vs for _, vs in events),
        )

    def repro_hint(self, seed: int, *, method: str = "generate") -> str:
        """The reproduction one-liner printed with failing seeds."""
        return (
            f"fuzz seed {seed}: FaultScheduleFuzzer(nranks={self.nranks}, "
            f"horizon_iters={self.horizon_iters}, "
            f"hook_interval={self.hook_interval}).{method}({seed})"
        )
