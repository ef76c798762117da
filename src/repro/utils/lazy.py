"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules imports
every one of those submodules the moment any of them is imported, so a
process that needs one cipher netlist also loads AES and GIFT, and one that
builds a figure also loads the area tables.  :func:`lazy_exports` keeps the
public names while importing each submodule on first access only.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``'s re-exports.

    ``exports`` maps each public name to the module that defines it, as
    ``"module"`` or, for a name exported under another name,
    ``"module:attr"``.  The first access imports the module and caches the
    value in the package namespace, so later accesses are plain lookups.
    Use it as ``__getattr__, __dir__ = lazy_exports(__name__, {...})``.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, _, attr = target.partition(":")
        value = getattr(importlib.import_module(module), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
