"""Recovery schemes (Table 2).

===========  ======================================================
Scheme       Description
===========  ======================================================
``RD``       Double modular redundancy (:class:`Redundancy`)
``CR-M``     Checkpoint to / rollback from memory
``CR-D``     Checkpoint to / rollback from disk
``F0``       Assign 0 to the lost block (:class:`ZeroFill`)
``FI``       Assign the initial guess (:class:`InitialGuessFill`)
``LI``       Linear interpolation, Eq. 17/19
``LSI``      Least-squares interpolation, Eq. 18/21
===========  ======================================================

LI and LSI take a ``method`` (exact ``"lu"``/``"qr"`` per prior work [2],
or the paper's optimized local ``"cg"``) and a ``dvfs`` flag enabling the
Section-4.2 power schedule.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "base": ("RecoveryScheme", "RecoveryServices"),
    "redundancy": ("Redundancy",),
    "checkpoint": ("CheckpointRestart",),
    "multilevel": ("MultiLevelCheckpointRestart",),
    "fill": ("InitialGuessFill", "ZeroFill"),
    "interpolation": ("LeastSquaresInterpolation", "LinearInterpolation"),
    "factory": ("make_scheme", "scheme_names"),
}

__all__ = [
    "RecoveryScheme",
    "RecoveryServices",
    "Redundancy",
    "CheckpointRestart",
    "MultiLevelCheckpointRestart",
    "ZeroFill",
    "InitialGuessFill",
    "LinearInterpolation",
    "LeastSquaresInterpolation",
    "make_scheme",
    "scheme_names",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
