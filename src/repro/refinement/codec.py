"""Compact binary container for simulation certificates.

This is the one stored encoding: the result cache keeps certificates as
``.bin`` entries holding this container, and nothing else stores them.
:meth:`~.simulation.SimulationCertificate.to_dict` is only a read-only
JSON dump; nothing decodes it.

Layout (all multi-byte integers big-endian):

====================  ==========================================================
offset / size         field
====================  ==========================================================
0 / 4                 magic ``b"GRC2"``
4 / 1                 container version (:data:`CONTAINER_VERSION`)
5 / 2                 certificate format (:data:`~.simulation.CERTIFICATE_FORMAT`)
7 / 32                integrity — SHA-256 of everything after this field
39 / 32               content digest — SHA-256 of the *uncompressed* canonical
                      core (== :meth:`SimulationCertificate.content_hash`)
71 / 4+n              u32 length + zlib-compressed canonical core
… / rest              iteration count (unsigned LEB128 varint)
====================  ==========================================================

The canonical core is exactly the byte string hashed by
:meth:`SimulationCertificate.content_hash` — a hash-consed node table plus
int tables for the state roots, relation rows and stimuli.  Decoding
verifies the digest against the decompressed core (not merely trusting the
stored value), and the outer integrity hash rejects any bit flip or
truncation anywhere in the container, the trailer included.

The iteration count trailer is search bookkeeping: the integrity hash
covers it, the content digest does not.  Container version 1 carried a
replay-witness section in its place; such an entry fails the version check
and the obligation falls back to a fresh search.

Size: hash-consing stores each distinct state subtree once and zlib
squeezes the remaining varint tables, so a container is well over 5x
smaller than the JSON dump of the same certificate on the library
obligations.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

from ..core.ports import parse_port
from ..errors import CertificateError, PortError
from .encoding import decode_nodes, read_uvarint, read_uvarint_list, write_uvarint
from .simulation import CERTIFICATE_FORMAT, SimulationCertificate

MAGIC = b"GRC2"
CONTAINER_VERSION = 2

_HEADER = struct.Struct(">4sBH")
_U32 = struct.Struct(">I")


def to_bytes(certificate: SimulationCertificate) -> bytes:
    """Serialise *certificate* into the binary container."""
    core = certificate.core_bytes()
    digest = hashlib.sha256(core).digest()
    if certificate._hash is None:  # the content hash, without a second core
        certificate._hash = digest.hex()
    core_z = zlib.compress(core, 6)
    payload = bytearray(digest)
    payload += _U32.pack(len(core_z))
    payload += core_z
    write_uvarint(payload, int(certificate.iterations))
    integrity = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, CONTAINER_VERSION, CERTIFICATE_FORMAT) + integrity + payload


def content_hash_of(blob: bytes) -> str:
    """The content hash a binary container claims, without full decoding.

    Only the header and integrity hash are verified — use this to index a
    store cheaply; :func:`from_bytes` still re-verifies the digest against
    the actual core before the certificate is trusted.
    """
    _check_envelope(blob)
    return blob[39:71].hex()


def _check_envelope(blob: bytes) -> None:
    if len(blob) < 71 + 5:
        raise CertificateError("binary certificate truncated (shorter than header)")
    magic, version, fmt = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CertificateError(f"bad magic {magic!r}: not a binary certificate")
    if version != CONTAINER_VERSION:
        raise CertificateError(f"unsupported container version {version}")
    if fmt != CERTIFICATE_FORMAT:
        raise CertificateError(
            f"certificate format {fmt} != {CERTIFICATE_FORMAT}"
        )
    integrity = blob[7:39]
    if hashlib.sha256(blob[39:]).digest() != integrity:
        raise CertificateError(
            "binary certificate integrity check failed (tampered or corrupted)"
        )


def from_bytes(blob: bytes) -> SimulationCertificate:
    """Decode and verify a binary container.

    Raises :class:`CertificateError` on any damage: bad magic, version or
    format, an integrity mismatch anywhere in the payload, a content
    digest that does not match the decompressed core, or malformed int
    tables.  The returned certificate's ``content_hash()`` equals the
    embedded digest by construction (it is recomputed, not trusted).
    """
    _check_envelope(blob)
    digest = blob[39:71]
    (core_len,) = _U32.unpack_from(blob, 71)
    pos = 75 + core_len
    core_z = blob[75:pos]
    if len(core_z) != core_len:
        raise CertificateError("binary certificate truncated in core section")
    iterations, pos = read_uvarint(blob, pos)
    if pos != len(blob):
        raise CertificateError("trailing bytes after the iteration count")
    try:
        core = zlib.decompress(core_z)
    except zlib.error as exc:
        raise CertificateError(f"binary certificate decompression failed: {exc}") from exc
    if hashlib.sha256(core).digest() != digest:
        raise CertificateError(
            "certificate hash mismatch: stored content digest does not match "
            "the decoded core (tampered or corrupted)"
        )

    # -- canonical core ------------------------------------------------------
    pos = 0
    fmt, pos = read_uvarint(core, pos)
    if fmt != CERTIFICATE_FORMAT:
        raise CertificateError(f"certificate format {fmt} != {CERTIFICATE_FORMAT}")
    n_nodes, pos = read_uvarint(core, pos)
    nodes: list = []
    pos = decode_nodes(core, pos, n_nodes, nodes)

    def roots(pos: int) -> tuple[list, int]:
        count, pos = read_uvarint(core, pos)
        idxs, pos = read_uvarint_list(core, pos, count)
        if any(i >= len(nodes) for i in idxs):
            raise CertificateError("state root index outside the node table")
        return [nodes[i] for i in idxs], pos

    impl_states, pos = roots(pos)
    spec_states, pos = roots(pos)
    n_rows, pos = read_uvarint(core, pos)
    rows: list[tuple[int, int]] = []
    for _ in range(n_rows):
        i, pos = read_uvarint(core, pos)
        j, pos = read_uvarint(core, pos)
        if i >= len(impl_states) or j >= len(spec_states):
            raise CertificateError("relation row indexes outside the state tables")
        rows.append((i, j))
    n_stim, pos = read_uvarint(core, pos)
    stimuli_values: list[tuple[str, list]] = []
    for _ in range(n_stim):
        name_len, pos = read_uvarint(core, pos)
        if pos + name_len > len(core):
            raise CertificateError("truncated stimuli port name")
        name = core[pos : pos + name_len].decode("utf-8", errors="strict")
        pos += name_len
        n_values, pos = read_uvarint(core, pos)
        idxs, pos = read_uvarint_list(core, pos, n_values)
        if any(i >= len(nodes) for i in idxs):
            raise CertificateError("stimulus value index outside the node table")
        stimuli_values.append((name, [nodes[i] for i in idxs]))
    impl_count, pos = read_uvarint(core, pos)
    spec_count, pos = read_uvarint(core, pos)
    if pos != len(core):
        raise CertificateError("trailing bytes after certificate core")
    try:
        stimuli = {parse_port(name): tuple(values) for name, values in stimuli_values}
    except PortError as exc:
        raise CertificateError(f"malformed stimuli encoding: {exc}") from exc
    relation = frozenset((impl_states[i], spec_states[j]) for i, j in rows)

    return SimulationCertificate(
        relation=relation,
        impl_states=impl_count,
        spec_states=spec_count,
        iterations=iterations,
        stimuli=stimuli,
        _canon=(tuple(impl_states), tuple(spec_states), tuple(rows)),
        _hash=digest.hex(),
    )
