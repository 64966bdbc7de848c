"""Analytical models (Sections 3 and 6).

* :mod:`repro.core.models.general` — the generalized T/P/E models
  (Equations 1-8) under fixed-time weak scaling;
* :mod:`repro.core.models.schemes` — per-scheme refinements of
  ``T_res`` and ``P_res`` (Equations 9-16);
* :mod:`repro.core.models.projection` — the Section-6 weak-scaling
  projection to large systems (Figure 9);
* :mod:`repro.core.models.validation` — model-vs-measured comparison
  (Table 6).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "general": ("GeneralModel", "WorkloadParams"),
    "schemes": ("CheckpointModel", "ForwardRecoveryModel", "RedundancyModel"),
    "projection": ("ProjectionConfig", "ProjectionPoint", "project"),
    "validation": ("ModelValidation", "validate_scheme"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
