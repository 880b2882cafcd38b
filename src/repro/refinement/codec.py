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
… / 4+m               u32 length + zlib-compressed witness section
====================  ==========================================================

The canonical core is exactly the byte string hashed by
:meth:`SimulationCertificate.content_hash` — a hash-consed node table plus
int tables for the state roots, relation rows and stimuli.  Decoding
verifies the digest against the decompressed core (not merely trusting the
stored value), and the outer integrity hash rejects any bit flip or
truncation anywhere in the container, witness section included.

The witness section (see :class:`~.simulation.ReplayWitnesses`) extends the
core's node table with the path-only spec states and stores the τ-path and
per-row move tables as varint runs, followed by the iteration count.  It is
covered by the integrity hash but *not* by the content digest: witnesses
are advisory and two searches of the same obligation may record different
(equally valid) responses.

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
from .encoding import (
    NodeTable,
    decode_nodes,
    read_uvarint,
    read_uvarint_list,
    write_uvarint,
)
from .simulation import CERTIFICATE_FORMAT, ReplayWitnesses, SimulationCertificate

MAGIC = b"GRC2"
CONTAINER_VERSION = 1

_HEADER = struct.Struct(">4sBH")
_U32 = struct.Struct(">I")


def to_bytes(certificate: SimulationCertificate) -> bytes:
    """Serialise *certificate* into the binary container."""
    table = NodeTable()
    core = certificate.core_bytes(table)
    digest = hashlib.sha256(core).digest()
    n_core_nodes = len(table)

    wit = bytearray()
    witnesses = certificate.witnesses
    if witnesses is None:
        wit.append(0)
    else:
        wit.append(1)
        extra_roots = [table.index(t) for t in witnesses.extra_spec]
        extra_records = table.records[n_core_nodes:]
        write_uvarint(wit, len(extra_records))
        for record in extra_records:
            wit += record
        write_uvarint(wit, len(extra_roots))
        for root in extra_roots:
            write_uvarint(wit, root)
        write_uvarint(wit, len(witnesses.paths))
        for path in witnesses.paths:
            write_uvarint(wit, len(path))
            for k in path:
                write_uvarint(wit, k)
        write_uvarint(wit, len(witnesses.rows))
        for row in witnesses.rows:
            write_uvarint(wit, len(row))
            for kind, p_idx, resp in row:
                write_uvarint(wit, kind)
                write_uvarint(wit, p_idx)
                write_uvarint(wit, resp)
    write_uvarint(wit, int(certificate.iterations))

    core_z = zlib.compress(core, 6)
    wit_z = zlib.compress(bytes(wit), 6)
    payload = (
        digest
        + _U32.pack(len(core_z))
        + core_z
        + _U32.pack(len(wit_z))
        + wit_z
    )
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
    if len(blob) < 71 + 8:
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
    pos = 71
    try:
        (core_len,) = _U32.unpack_from(blob, pos)
        pos += 4
        core_z = blob[pos : pos + core_len]
        if len(core_z) != core_len:
            raise CertificateError("binary certificate truncated in core section")
        pos += core_len
        (wit_len,) = _U32.unpack_from(blob, pos)
        pos += 4
        wit_z = blob[pos : pos + wit_len]
        if len(wit_z) != wit_len:
            raise CertificateError("binary certificate truncated in witness section")
    except struct.error as exc:
        raise CertificateError("binary certificate truncated") from exc
    try:
        core = zlib.decompress(core_z)
        wit = zlib.decompress(wit_z)
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

    # -- witness section (advisory: parse errors raise, since the integrity
    # hash already vouched for these bytes — junk here means a codec bug,
    # not wire damage) -------------------------------------------------------
    pos = 0
    if pos >= len(wit):
        raise CertificateError("truncated witness section")
    has_witnesses = wit[pos]
    pos += 1
    witnesses = None
    if has_witnesses == 1:
        n_extra, pos = read_uvarint(wit, pos)
        extra_nodes = list(nodes)
        pos = decode_nodes(wit, pos, n_extra, extra_nodes)
        n_roots, pos = read_uvarint(wit, pos)
        root_idxs, pos = read_uvarint_list(wit, pos, n_roots)
        if any(i >= len(extra_nodes) for i in root_idxs):
            raise CertificateError("witness state root outside the node table")
        extra_spec = tuple(extra_nodes[i] for i in root_idxs)
        n_paths, pos = read_uvarint(wit, pos)
        paths = []
        for _ in range(n_paths):
            length, pos = read_uvarint(wit, pos)
            path, pos = read_uvarint_list(wit, pos, length)
            paths.append(tuple(path))
        n_wit_rows, pos = read_uvarint(wit, pos)
        wit_rows = []
        for _ in range(n_wit_rows):
            length, pos = read_uvarint(wit, pos)
            row = []
            for _ in range(length):
                kind, pos = read_uvarint(wit, pos)
                p_idx, pos = read_uvarint(wit, pos)
                resp, pos = read_uvarint(wit, pos)
                row.append((kind, p_idx, resp))
            wit_rows.append(tuple(row))
        if n_wit_rows == len(rows):
            witnesses = ReplayWitnesses(
                extra_spec=extra_spec, paths=tuple(paths), rows=tuple(wit_rows)
            )
    elif has_witnesses != 0:
        raise CertificateError("malformed witness section flag")
    iterations, pos = read_uvarint(wit, pos)
    if pos != len(wit):
        raise CertificateError("trailing bytes after witness section")

    return SimulationCertificate(
        relation=relation,
        impl_states=impl_count,
        spec_states=spec_count,
        iterations=iterations,
        stimuli=stimuli,
        witnesses=witnesses,
        _canon=(tuple(impl_states), tuple(spec_states), tuple(rows)),
        _hash=digest.hex(),
    )
