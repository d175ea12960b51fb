"""Lazy package exports (PEP 562): a package name loads its submodule at first use."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package, table):
    """``(__getattr__, __dir__, __all__)`` for *package* from ``{submodule: names}``.

    Submodules are relative to *package*.  The first access to a name imports
    its submodule and binds the value in the package, so later lookups never
    reach ``__getattr__``.  Any other name raises :class:`AttributeError`,
    which lets ``from package import submodule`` fall back to importing it.
    """
    owner = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(owner[name], package), name)
        return namespace[name]

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)
