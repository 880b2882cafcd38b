"""Canonical encoding of a component type plus parameters into one string.

ExprLow base components carry a single ``STR`` naming the component (section
4.1); parameters such as the wire type of a Mux or the function name of a
Pure component are encoded into that string, so both the environment lookup
and the syntactic matching of the rewriting function see one canonical name.

The format is ``Name{key=value;key=value}`` with keys sorted.  Values are
decoded by convention: keys listed in :data:`TYPE_KEYS` parse as wire types,
``true``/``false`` parse as booleans, numerals as int/float, everything else
stays a string.  Function-valued parameters are therefore stored as names and
resolved through the environment's function registry.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import GraphError
from .types import Type, parse_type

TYPE_KEYS = frozenset({"type", "in_type", "out_type", "left_type", "right_type", "data_type"})

_FORBIDDEN = set("{};=")


def encode_component(typ: str, params: Mapping[str, object]) -> str:
    """Encode *typ* and *params* into the canonical component string."""
    if not _FORBIDDEN.isdisjoint(typ):
        raise GraphError(f"component type name {typ!r} contains reserved characters")
    if not params:
        return typ
    parts = []
    for key in sorted(params):
        value = params[key]
        text = _encode_value(value)
        if not (_FORBIDDEN.isdisjoint(key) and _FORBIDDEN.isdisjoint(text)):
            raise GraphError(f"parameter {key}={value!r} contains reserved characters")
        parts.append(f"{key}={text}")
    return f"{typ}{{{';'.join(parts)}}}"


def _encode_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, Type)):
        return str(value)
    if isinstance(value, str):
        return value
    raise GraphError(f"cannot encode parameter value {value!r} into a component string")


def decode_component(text: str) -> tuple[str, dict[str, object]]:
    """Invert :func:`encode_component`."""
    if "{" not in text:
        return text, {}
    if not text.endswith("}"):
        raise GraphError(f"malformed component string {text!r}")
    name, _, body = text[:-1].partition("{")
    params: dict[str, object] = {}
    if body:
        for part in body.split(";"):
            key, sep, raw = part.partition("=")
            if not sep:
                raise GraphError(f"malformed parameter {part!r} in {text!r}")
            params[key] = _decode_value(key, raw)
    return name, params


def _decode_value(key: str, raw: str) -> object:
    if key in TYPE_KEYS:
        return parse_type(raw)
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw
