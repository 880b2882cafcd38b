"""Binary encoding primitives shared by certificate hashing and the codec.

Module states are nested tuples/frozensets over a handful of scalar leaf
types (see :func:`repro.refinement.simulation.encode_state`).  Two binary
views of a state are defined here:

* :func:`state_bytes` — a *standalone* canonical byte string per value.
  Used as the canonical sort key (state tables, frozenset element order)
  so every consumer agrees on one total order that does not depend on
  ``PYTHONHASHSEED``, process or construction history.

* :class:`NodeTable` — a *hash-consed* flat array of nodes, where every
  distinct subtree is encoded exactly once and composite nodes reference
  their children by index.  Certificate state tables share almost all of
  their substructure (product states differ in a few leaves), so the node
  table is both dramatically smaller than per-state encodings and much
  faster to decode: each distinct subtree is rebuilt once, and whole
  states become single index lookups.

Integers use unsigned LEB128 varints (zigzag for signed); the wire-level
container built on top of these lives in :mod:`repro.refinement.codec`.
"""

from __future__ import annotations

import struct

from ..errors import CertificateError

NODE_NONE = 0x00
NODE_FALSE = 0x01
NODE_TRUE = 0x02
NODE_INT = 0x03
NODE_FLOAT = 0x04
NODE_STR = 0x05
NODE_TUPLE = 0x06
NODE_FROZENSET = 0x07

_FLOAT = struct.Struct(">d")


def write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* as an unsigned LEB128 varint."""
    if value < 0:
        raise CertificateError(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned varint at *pos*; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CertificateError("truncated varint in certificate data")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CertificateError("oversized varint in certificate data")


def zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


_zigzag_big = zigzag


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def state_bytes(value, memo: dict | None = None) -> bytes:
    """The standalone canonical binary encoding of one state value.

    Deterministic across processes: frozenset elements are ordered by
    their own encodings, never by hash.  *memo* (keyed by value) makes
    repeated encodings of shared substructure cheap; pass one dict per
    batch of related states.
    """
    if memo is not None:
        cached = memo.get(value) if _memoizable(value) else None
        if cached is not None:
            return cached
    out = bytearray()
    _write_state(out, value, memo)
    encoded = bytes(out)
    if memo is not None and _memoizable(value):
        memo[value] = encoded
    return encoded


def _memoizable(value) -> bool:
    return isinstance(value, (tuple, frozenset))


def _write_state(out: bytearray, value, memo: dict | None) -> None:
    if value is None:
        out.append(NODE_NONE)
    elif value is True:
        out.append(NODE_TRUE)
    elif value is False:
        out.append(NODE_FALSE)
    elif isinstance(value, bool):  # bool subclasses, defensively
        out.append(NODE_TRUE if value else NODE_FALSE)
    elif isinstance(value, int):
        out.append(NODE_INT)
        write_uvarint(out, _zigzag_big(value))
    elif isinstance(value, float):
        out.append(NODE_FLOAT)
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(NODE_STR)
        write_uvarint(out, len(data))
        out += data
    elif isinstance(value, tuple):
        out.append(NODE_TUPLE)
        write_uvarint(out, len(value))
        for item in value:
            out += state_bytes(item, memo)
    elif isinstance(value, frozenset):
        encoded = sorted(state_bytes(item, memo) for item in value)
        out.append(NODE_FROZENSET)
        write_uvarint(out, len(encoded))
        for item in encoded:
            out += item
    else:
        raise CertificateError(
            f"cannot serialise state component of type {type(value).__name__!r}"
        )


class NodeTable:
    """A hash-consed flat encoding of a set of state values.

    ``index(value)`` interns *value* (children first) and returns its node
    index; ``blob()`` is the concatenated node records.  Construction order
    is deterministic given the order of ``index`` calls, so two encoders
    fed the same canonical state sequence produce identical blobs.
    """

    __slots__ = ("records", "_memo", "_sort_memo")

    def __init__(self) -> None:
        self.records: list[bytes] = []
        self._memo: dict = {}
        self._sort_memo: dict = {}

    def __len__(self) -> int:
        return len(self.records)

    def index(self, value) -> int:
        idx = self._memo.get(value)
        if idx is not None:
            return idx
        out = bytearray()
        if value is None:
            out.append(NODE_NONE)
        elif value is True:
            out.append(NODE_TRUE)
        elif value is False:
            out.append(NODE_FALSE)
        elif isinstance(value, bool):
            out.append(NODE_TRUE if value else NODE_FALSE)
        elif isinstance(value, int):
            out.append(NODE_INT)
            write_uvarint(out, _zigzag_big(value))
        elif isinstance(value, float):
            out.append(NODE_FLOAT)
            out += _FLOAT.pack(value)
        elif isinstance(value, str):
            data = value.encode("utf-8")
            out.append(NODE_STR)
            write_uvarint(out, len(data))
            out += data
        elif isinstance(value, tuple):
            children = [self.index(item) for item in value]
            out.append(NODE_TUPLE)
            write_uvarint(out, len(children))
            for child in children:
                write_uvarint(out, child)
        elif isinstance(value, frozenset):
            items = sorted(value, key=lambda item: state_bytes(item, self._sort_memo))
            children = [self.index(item) for item in items]
            out.append(NODE_FROZENSET)
            write_uvarint(out, len(children))
            for child in children:
                write_uvarint(out, child)
        else:
            raise CertificateError(
                f"cannot serialise state component of type {type(value).__name__!r}"
            )
        idx = len(self.records)
        self.records.append(bytes(out))
        self._memo[value] = idx
        return idx

    def blob(self) -> bytes:
        return b"".join(self.records)


def decode_nodes(buf: bytes, pos: int, count: int, values: list) -> int:
    """Decode *count* node records at *pos*, appending each value to *values*.

    Composite nodes may only reference earlier indices.  Returns the new
    position; raises :class:`CertificateError` on malformed data.
    """
    for _ in range(count):
        if pos >= len(buf):
            raise CertificateError("truncated node table in certificate data")
        tag = buf[pos]
        pos += 1
        if tag == NODE_NONE:
            values.append(None)
        elif tag == NODE_FALSE:
            values.append(False)
        elif tag == NODE_TRUE:
            values.append(True)
        elif tag == NODE_INT:
            raw, pos = read_uvarint(buf, pos)
            values.append(unzigzag(raw))
        elif tag == NODE_FLOAT:
            if pos + 8 > len(buf):
                raise CertificateError("truncated float node in certificate data")
            values.append(_FLOAT.unpack_from(buf, pos)[0])
            pos += 8
        elif tag == NODE_STR:
            length, pos = read_uvarint(buf, pos)
            if pos + length > len(buf):
                raise CertificateError("truncated string node in certificate data")
            try:
                values.append(buf[pos : pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CertificateError("invalid utf-8 in string node") from exc
            pos += length
        elif tag in (NODE_TUPLE, NODE_FROZENSET):
            length, pos = read_uvarint(buf, pos)
            limit = len(values)
            children = []
            for _ in range(length):
                child, pos = read_uvarint(buf, pos)
                if child >= limit:
                    raise CertificateError(
                        f"node references forward index {child} (have {limit})"
                    )
                children.append(values[child])
            values.append(tuple(children) if tag == NODE_TUPLE else frozenset(children))
        else:
            raise CertificateError(f"unknown node tag 0x{tag:02x} in certificate data")
    return pos


def read_uvarint_list(buf: bytes, pos: int, count: int) -> tuple[list[int], int]:
    values = []
    for _ in range(count):
        value, pos = read_uvarint(buf, pos)
        values.append(value)
    return values, pos
