"""A small type language for dataflow wires.

Section 6.3 of the paper introduces *well-typed graphs* — graphs where every
connection joins an output and an input of the same type — to bridge the
parametric environment used when proving the loop rewrite and the concrete
environment of a particular input graph.  We mirror that with a small type
language: concrete wire types plus type variables for parametric rewrites;
:mod:`repro.core.typecheck` unifies them over a whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import TypeCheckError


class Type:
    """Base class for wire types.  Types are immutable and hashable."""

    def substitute(self, assignment: Mapping[str, "Type"]) -> "Type":
        """Replace type variables according to *assignment*."""
        return self

    def free_vars(self) -> frozenset[str]:
        return frozenset()

    def is_concrete(self) -> bool:
        return not self.free_vars()


@dataclass(frozen=True)
class UnitType(Type):
    """The control-token type: carries no data, only a handshake event."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class BoolType(Type):
    """A single-bit condition wire."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType(Type):
    """A two's-complement integer wire of the given bit width."""

    width: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise TypeCheckError(f"integer width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class FloatType(Type):
    """An IEEE-754 floating point wire (single or double precision)."""

    width: int = 32

    def __post_init__(self) -> None:
        if self.width not in (32, 64):
            raise TypeCheckError(f"float width must be 32 or 64, got {self.width}")

    def __str__(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True)
class TupleType(Type):
    """A product of wire types, created by Join and consumed by Split."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"

    def substitute(self, assignment: Mapping[str, Type]) -> Type:
        return TupleType(self.left.substitute(assignment), self.right.substitute(assignment))

    def free_vars(self) -> frozenset[str]:
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class TaggedType(Type):
    """A wire carrying a (tag, value) pair inside a Tagger/Untagger region."""

    inner: Type
    tag_bits: int = 8

    def __str__(self) -> str:
        return f"tagged<{self.inner}, {self.tag_bits}>"

    def substitute(self, assignment: Mapping[str, Type]) -> Type:
        return TaggedType(self.inner.substitute(assignment), self.tag_bits)

    def free_vars(self) -> frozenset[str]:
        return self.inner.free_vars()


@dataclass(frozen=True)
class TypeVar(Type):
    """A type variable, used in the parametric environment of rewrites."""

    name: str

    def __str__(self) -> str:
        return f"'{self.name}"

    def substitute(self, assignment: Mapping[str, Type]) -> Type:
        return assignment.get(self.name, self)

    def free_vars(self) -> frozenset[str]:
        return frozenset({self.name})


UNIT = UnitType()
BOOL = BoolType()
I32 = IntType(32)
F32 = FloatType(32)


def parse_type(text: str) -> Type:
    """Parse the textual form produced by ``str(type)``."""
    text = text.strip()
    if text == "unit":
        return UNIT
    if text == "bool":
        return BOOL
    if text.startswith("i") and text[1:].isdigit():
        return IntType(int(text[1:]))
    if text.startswith("f") and text[1:].isdigit():
        return FloatType(int(text[1:]))
    if text.startswith("'"):
        return TypeVar(text[1:])
    if text.startswith("tagged<") and text.endswith(">"):
        inner, _, bits = text[7:-1].rpartition(",")
        return TaggedType(parse_type(inner), int(bits.strip()))
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 1:
                return TupleType(parse_type(text[1:i]), parse_type(text[i + 1:-1]))
    raise TypeCheckError(f"cannot parse type {text!r}")
