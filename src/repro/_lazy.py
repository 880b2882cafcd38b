"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules lists
them once, in a table mapping each public name to the submodule that
defines it, and hands that table to :func:`lazy_exports`::

    _EXPORTS = {"Session": ".api", "paper_data": ".paper_data"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

Importing the package then loads none of those submodules.  The first
access to a name imports its submodule and stores the value in the
package's globals, so every later access is a plain attribute hit that
never reaches ``__getattr__``.  A name mapped to the submodule of the
same name (``"paper_data": ".paper_data"``) exports that submodule, and
``".codec:from_bytes"`` exports the submodule's ``from_bytes`` under the
table's name.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    package: str, namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package with lazy *exports*.

    *namespace* is the package's ``globals()``; *exports* maps each public
    name to its defining submodule, relative to *package*, optionally
    followed by ``:attribute`` when the submodule names it differently.
    """

    def __getattr__(name: str) -> Any:
        try:
            submodule, _, attribute = exports[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(submodule, package)
        if module.__name__ == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
