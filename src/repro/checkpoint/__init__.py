"""Checkpoint substrate: stores, optimal intervals, periodic manager.

Implements the paper's two checkpoint/restart variants (Table 2): CR-M
(checkpoint to node memory, cheap and weak-scaling-constant) and CR-D
(checkpoint to a shared parallel file system, expensive and growing
linearly with system size — Section 6), plus Young's [41] and Daly's [16]
optimal checkpoint interval formulas.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "store": ("CheckpointStore", "DiskStore", "MemoryStore", "Snapshot"),
    "interval": ("daly_interval", "young_interval", "interval_in_iterations"),
    "manager": ("CheckpointManager",),
    "multilevel": ("MultiLevelManager", "MultiLevelRestore"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
