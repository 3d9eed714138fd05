"""Lazy package exports (PEP 562).

Each package ``__init__`` names its public attributes and the module that
defines each one, instead of importing them. Importing a package then
loads none of its submodules: a command loads only the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package *package*.

    *exports* maps each defining module to the names it exports. The
    first read of an exported name imports its defining module and binds
    the name in the package, so later reads are plain lookups. A read of
    any other name imports the submodule of that name, if there is one
    (``repro.batch.kernels`` after ``import repro.batch``).
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is not None:
            value = namespace[name] = getattr(importlib.import_module(module), name)
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
