"""Content-addressed on-disk result cache.

Entries are JSON files keyed by a fingerprint (see
:mod:`repro.exec.hashing`), sharded by the first two hex digits so a large
cache does not put thousands of files in one directory.  Writes go through
a temporary file plus :func:`os.replace`, so a concurrent reader never sees
a half-written entry; a corrupted entry (truncated file, hand-edited JSON,
wrong embedded key) is quarantined by deletion and reported as a miss, so
the worst failure mode is recomputation.  Lookups and writes are counted
on the active :mod:`repro.obs` tracer: ``cache.hits``, ``cache.misses``,
``cache.writes`` and ``cache.corrupt``.

:class:`NullCache` is the ``--no-cache`` implementation: same interface,
never stores anything.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..errors import GraphitiError

#: Bump when the entry layout changes; older entries then read as misses.
CACHE_FORMAT = 1


class CacheError(GraphitiError):
    """The cache directory could not be created or written."""


@dataclass
class ResultCache:
    """A directory of content-addressed JSON entries."""

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cannot create cache directory {self.root}: {exc}") from exc

    # -- addressing ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- operations ---------------------------------------------------------

    def get(self, key: str) -> object | None:
        """The stored payload, or None on miss (including corrupted entries)."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            obs.count("cache.misses")
            return None
        try:
            entry = json.loads(text)
            if entry["format"] != CACHE_FORMAT or entry["key"] != key:
                raise ValueError("stale format or mismatched key")
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError):
            # Corrupted or stale: quarantine by deletion, report a miss.
            obs.count("cache.corrupt")
            obs.count("cache.misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if payload is None:
            obs.count("cache.misses")
            return None
        obs.count("cache.hits")
        return payload

    def put(self, key: str, payload: object) -> None:
        """Store a JSON-serialisable, non-None payload atomically."""
        if payload is None:
            raise CacheError("cache payloads must not be None (None encodes a miss)")
        path = self.path_for(key)
        entry = {"format": CACHE_FORMAT, "key": key, "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
        obs.count("cache.writes")

    # -- binary entries ------------------------------------------------------
    #
    # Some payloads (compact binary certificates) are raw byte strings with
    # their own integrity headers; wrapping them in JSON would force a
    # base64 blowup.  They live next to the JSON entries as ``.bin`` files
    # under the same sharded key scheme, written with the same
    # tempfile+replace atomicity.  Self-describing formats carry their own
    # tamper detection, so no JSON envelope is layered on top.

    def bin_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def get_bytes(self, key: str) -> bytes | None:
        """The stored binary payload, or None on miss."""
        try:
            data = self.bin_path_for(key).read_bytes()
        except OSError:
            obs.count("cache.misses")
            return None
        obs.count("cache.hits")
        return data

    def put_bytes(self, key: str, payload: bytes) -> None:
        """Store a raw binary payload atomically."""
        path = self.bin_path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
        obs.count("cache.writes")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json")) + sum(
            1 for _ in self.root.glob("*/*.bin")
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for pattern in ("*/*.json", "*/*.bin"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class NullCache:
    """The disabled cache: every lookup misses, nothing is stored."""

    def get(self, key: str) -> None:
        obs.count("cache.misses")
        return None

    def put(self, key: str, payload: object) -> None:
        pass

    def get_bytes(self, key: str) -> None:
        obs.count("cache.misses")
        return None

    def put_bytes(self, key: str, payload: bytes) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/graphiti-repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "graphiti-repro"
