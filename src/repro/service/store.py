"""The content-addressed result store and certificate index.

:class:`ResultStore` wraps the same on-disk
:class:`~repro.exec.cache.ResultCache` machinery the executor uses, with
service-level keys: a job's store key is a SHA-256 over ``("service-job",
TOOL_VERSION, kind, canonical params)`` — see
:func:`repro.service.ops.canonical_params` — so identical requests from
different clients (or different tenants of one server) dedupe to a single
computation, and bumping the tool version invalidates every stale entry,
exactly like the executor cache.

The store also indexes **simulation certificates** by content hash.
Certificates land in the shared cache directory as a side effect of
``check_obligations`` jobs (the certified path persists each
:class:`~repro.refinement.simulation.SimulationCertificate` as a compact
binary ``.bin`` entry); the index is built by an incremental scan of the
``.bin`` files, and ``GET /v1/certificates/{hash}`` serves an entry only
after **recheck-validating** it — :func:`repro.refinement.codec.from_bytes`
recomputes the embedded content hash, so a tampered or truncated entry is
reported missing rather than served.  :meth:`ResultStore.certificate_bytes`
returns the binary container and :meth:`ResultStore.certificate` a
read-only JSON dump of it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .._version import __version__ as TOOL_VERSION
from ..exec.cache import NullCache, ResultCache, default_cache_dir
from ..exec.hashing import fingerprint


def job_key(kind: str, params: dict) -> str:
    """The content-addressed store key for one canonical job request."""
    return fingerprint(
        "service-job",
        TOOL_VERSION,
        kind,
        json.dumps(params, sort_keys=True, separators=(",", ":")),
    )


class ResultStore:
    """Deduplicates job results and serves certificates by content hash."""

    def __init__(self, cache_dir: str | Path | None = None, use_cache: bool = True):
        if use_cache:
            self.cache = ResultCache(Path(cache_dir) if cache_dir else default_cache_dir())
        else:
            self.cache = NullCache()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._cert_index: dict[str, str] = {}  # content hash -> cache key
        self._scanned: set[str] = set()

    # -- job results --------------------------------------------------------

    def key_for(self, kind: str, params: dict) -> str:
        return job_key(kind, params)

    def get(self, key: str) -> dict | list | None:
        """A stored wire-format result, or None on miss."""
        payload = self.cache.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict | list) -> None:
        self.cache.put(key, payload)
        self.writes += 1

    # -- certificates -------------------------------------------------------

    def _load_certificate(self, content_hash: str):
        """The re-validated :class:`SimulationCertificate`, or None.

        The stored entry must decode into a certificate whose recomputed
        content hash equals both its embedded hash and the requested one.
        """
        from ..errors import CertificateError
        from ..refinement.codec import from_bytes

        key = self._cert_index.get(content_hash)
        if key is None:
            self.refresh_certificates()
            key = self._cert_index.get(content_hash)
        if key is None:
            return None
        blob = self.cache.get_bytes(key)
        if blob is None:
            return None
        try:
            certificate = from_bytes(blob)
        except CertificateError:
            return None
        if certificate.content_hash() != content_hash:
            return None
        return certificate

    def certificate(self, content_hash: str) -> dict | None:
        """The validated certificate for *content_hash* as a JSON dump."""
        certificate = self._load_certificate(content_hash)
        if certificate is None:
            return None
        return certificate.to_dict()

    def certificate_bytes(self, content_hash: str) -> bytes | None:
        """The validated certificate for *content_hash* as a binary container."""
        from ..refinement.codec import to_bytes

        certificate = self._load_certificate(content_hash)
        if certificate is None:
            return None
        return to_bytes(certificate)

    def refresh_certificates(self) -> int:
        """Incrementally scan the cache directory for certificate entries.

        Only files not seen by a previous scan are opened, so a warm store
        with thousands of entries pays for each file once.  Returns the
        number of certificates indexed in total.
        """
        from ..errors import CertificateError
        from ..refinement.codec import content_hash_of

        root = getattr(self.cache, "root", None)
        if root is None:  # NullCache: nothing on disk
            return 0
        for path in Path(root).glob("*/*.bin"):
            name = f"{path.parent.name}/{path.name}"
            if name in self._scanned:
                continue
            self._scanned.add(name)
            try:
                # Validates the container envelope (magic, version,
                # payload integrity) before trusting the embedded digest.
                content_hash = content_hash_of(path.read_bytes())
            except (OSError, CertificateError):
                continue
            self._cert_index[content_hash] = path.stem
        return len(self._cert_index)

    # -- accounting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "certificates": len(self._cert_index),
        }
