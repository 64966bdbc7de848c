"""Package re-exports resolved on first attribute access (PEP 562).

A package ``__init__`` that imported every submodule it re-exports would
make a process that only reads stored results pay for ``scipy.sparse``
and the solver: ``import repro.campaign`` runs ``repro/__init__.py``
first.  So no package ``__init__`` imports anything.  Each declares
``{submodule: names}`` and takes its module ``__getattr__``, ``__dir__``
and ``__all__`` from :func:`lazy_exports`; the first access of a name
imports its submodule and keeps the value in the package namespace, so
later accesses are plain attribute lookups.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` is ``namespace``; ``table`` maps a submodule path
    relative to the package (``"core.solver"``) to the names it
    re-exports, and ``__all__`` lists them in table order."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__, [n for names in table.values() for n in names]
