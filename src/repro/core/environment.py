"""The environment ε: a map from component names to semantic modules.

Figure 7 of the paper defines ``ε ∈ Env ≜ STR ↦ Σ_S 𝓜(S)``.  Here the
environment is a registry of *builders*: a component string (see
:mod:`repro.core.encoding`) decodes to a name plus parameters, and the
builder registered under that name constructs the module.  The environment
also owns a function registry, so Pure and Operator components can reference
Python functions by name while keeping graphs serialisable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import SemanticsError
from .encoding import decode_component
from .module import Module

Builder = Callable[[dict, "Environment"], Module]


@dataclass(frozen=True)
class FunctionDef:
    """A named pure function usable by Pure / Operator components."""

    name: str
    fn: Callable
    arity: int

    def __call__(self, *args: object) -> object:
        if len(args) != self.arity:
            raise SemanticsError(
                f"function {self.name!r} expects {self.arity} arguments, got {len(args)}"
            )
        return self.fn(*args)


class Environment:
    """A component environment with builder and function registries.

    The *capacity* attribute bounds every internal queue built by component
    builders; ``None`` leaves queues unbounded (used for trace simulation),
    while refinement checking uses small bounds to keep state spaces finite.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self._builders: dict[str, Builder] = {}
        self._functions: dict[str, FunctionDef] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, builder: Builder) -> None:
        if name in self._builders:
            raise SemanticsError(f"component builder {name!r} registered twice")
        self._builders[name] = builder

    def register_function(self, name: str, fn: Callable, arity: int) -> FunctionDef:
        definition = FunctionDef(name, fn, arity)
        self._functions[name] = definition
        return definition

    def lookup_function(self, name: str) -> FunctionDef | None:
        """Registry-only lookup (no combinator resolution); None if absent."""
        return self._functions.get(name)

    def function(self, name: str) -> FunctionDef:
        try:
            return self._functions[name]
        except KeyError:
            pass
        # Derived combinator names (comp(f,g), first(f), tup(f), ...) are
        # produced by rewrites; resolve them from their base functions so a
        # rewritten graph can be denoted without manual registration.
        if any(token in name for token in "()"):
            from ..rewriting.algebra import ensure  # lazy: avoids a cycle

            return ensure(self, name)
        raise SemanticsError(f"unknown function {name!r} in environment")

    def functions(self) -> Mapping[str, FunctionDef]:
        return dict(self._functions)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, component: str) -> Module:
        """Denote a component string into its module (the ε lookup)."""
        name, params = decode_component(component)
        builder = self._builders.get(name)
        if builder is None:
            raise SemanticsError(f"no module registered for component {name!r}")
        return builder(params, self)

    # -- identity -------------------------------------------------------------

    def signature(self) -> str:
        """A canonical string identifying this environment's semantics.

        Covers the queue capacity and the registered builder and function
        names (with arities).  Function *bodies* are assumed stable for a
        given tool version — the executor's cache keys combine this
        signature with :data:`repro.exec.hashing.TOOL_VERSION`, so semantic
        changes must be accompanied by a version bump to invalidate caches.
        """
        builders = ",".join(sorted(self._builders))
        functions = ",".join(
            f"{name}/{definition.arity}" for name, definition in sorted(self._functions.items())
        )
        return f"cap={self.capacity};builders={builders};functions={functions}"

    # -- derivation -----------------------------------------------------------

    def with_capacity(self, capacity: int | None) -> "Environment":
        """A copy of this environment with a different queue bound."""
        clone = Environment(capacity)
        clone._builders = dict(self._builders)
        clone._functions = dict(self._functions)
        return clone
