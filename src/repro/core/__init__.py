"""Core graph languages and semantics of the Graphiti reproduction.

The layering follows the paper: :mod:`~repro.core.exprhigh` is the dot-like
graph language rewrites are matched on, :mod:`~repro.core.exprlow` is the
inductive language semantics and substitution are defined on,
:mod:`~repro.core.module` holds the semantic objects and their combinators,
and :mod:`~repro.core.semantics` is the denotation ⟦·⟧ε between them.
"""

from .encoding import decode_component, encode_component
from .environment import Environment, FunctionDef
from .exprhigh import Endpoint, ExprHigh, NodeSpec, lift
from .exprlow import Base, Connect, ExprLow, Product, build, product_fold
from .module import Module, connect_ports, product, rename
from .ports import InternalPort, IOPort, Port, PortMap
from .semantics import denote
from .types import (
    BOOL,
    F32,
    I32,
    UNIT,
    BoolType,
    FloatType,
    IntType,
    TaggedType,
    TupleType,
    Type,
    TypeVar,
    UnitType,
    parse_type,
)

__all__ = [
    "decode_component",
    "encode_component",
    "Environment",
    "FunctionDef",
    "Endpoint",
    "ExprHigh",
    "NodeSpec",
    "lift",
    "Base",
    "Connect",
    "ExprLow",
    "Product",
    "build",
    "product_fold",
    "Module",
    "connect_ports",
    "product",
    "rename",
    "InternalPort",
    "IOPort",
    "Port",
    "PortMap",
    "denote",
    "BOOL",
    "F32",
    "I32",
    "UNIT",
    "BoolType",
    "FloatType",
    "IntType",
    "TaggedType",
    "TupleType",
    "Type",
    "TypeVar",
    "UnitType",
    "parse_type",
]
