"""Pluggable execution engines (numeric simulation vs closed form).

Both built-in engines are named in one table
(:data:`repro.engines.base.ENGINES`); everything else resolves them by
name through :func:`make_engine`, which imports an engine's module the
first time it builds one.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "base": (
        "DEFAULT_ENGINE",
        "ExecutionEngine",
        "UnsupportedSchemeError",
        "engine_names",
        "make_engine",
    ),
    "sim": ("SimEngine",),
    "analytic": ("AnalyticEngine", "AnalyticParams"),
}

__all__ = [
    "DEFAULT_ENGINE",
    "AnalyticEngine",
    "AnalyticParams",
    "ExecutionEngine",
    "SimEngine",
    "UnsupportedSchemeError",
    "engine_names",
    "make_engine",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
