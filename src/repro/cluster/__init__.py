"""Simulated cluster substrate.

The paper ran on a real 8-node, 192-core Xeon cluster.  This package
provides the stand-in: a machine description (nodes, sockets, cores,
per-core DVFS frequency ladders), a two-level Hockney communication model
with the usual collective algorithms, per-rank simulated clocks, and a
BSP-style communicator (:class:`~repro.cluster.comm.SimComm`) whose
operations advance those clocks and record traffic volumes.

The substrate is deliberately explicit: every time increment comes from a
documented cost formula so the "experimental" measurements that feed the
paper's analytical models are themselves reproducible and testable.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "machine": ("CoreSpec", "FrequencyLadder", "MachineSpec", "NodeSpec"),
    "network": ("NetworkModel", "CollectiveCosts"),
    "simtime": ("ClockArray", "Phase", "PhaseLog"),
    "topology": ("ProcessBinding",),
    "comm": ("SimComm",),
}

__all__ = [
    "CoreSpec",
    "FrequencyLadder",
    "MachineSpec",
    "NodeSpec",
    "NetworkModel",
    "CollectiveCosts",
    "ClockArray",
    "Phase",
    "PhaseLog",
    "ProcessBinding",
    "SimComm",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
