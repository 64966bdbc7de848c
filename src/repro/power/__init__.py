"""Energy substrate: power models, DVFS control, simulated RAPL.

The paper measures processor power with Intel RAPL and drives DVFS through
CPUfreq (Section 5.1).  Neither is available here, so this package
provides the simulated equivalents:

* :mod:`repro.power.model` — per-core power as a function of frequency and
  activity state, calibrated so the paper's reported node-power ratios
  hold (compute = 1.0x, one-active/23-idle = 0.75x, DVFS-throttled =
  0.45x; Section 4.2).
* :mod:`repro.power.dvfs` — a CPUfreq-like controller with
  ``performance``, ``ondemand`` and ``userspace`` governors.
* :mod:`repro.power.rapl` — energy counters that integrate power over
  simulated time and produce power traces (Figure 7a).
* :mod:`repro.power.energy` — phase-tagged energy accounts
  (solve / overhead / checkpoint / reconstruct / extra iterations).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "model": ("CoreState", "PowerModel"),
    "dvfs": ("DvfsController", "Governor"),
    "rapl": ("RaplDomain", "RaplMeter"),
    "energy": ("EnergyAccount", "PhaseTag"),
}

__all__ = [
    "CoreState",
    "PowerModel",
    "DvfsController",
    "Governor",
    "RaplDomain",
    "RaplMeter",
    "EnergyAccount",
    "PhaseTag",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
