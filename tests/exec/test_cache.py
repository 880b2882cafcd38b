"""Result-cache behaviour: roundtrip, corruption recovery, null cache."""

import json

import pytest

from repro import obs
from repro.exec.cache import CACHE_FORMAT, CacheError, NullCache, ResultCache, default_cache_dir

KEY = "ab" + "0" * 62


@pytest.fixture
def counters():
    """The cache counters recorded during the test, on a private tracer."""
    with obs.scoped_tracer() as tracer:
        yield tracer.counters


class TestResultCache:
    def test_roundtrip(self, tmp_path, counters):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(KEY) is None
        cache.put(KEY, {"cycles": 42})
        assert cache.get(KEY) == {"cycles": 42}
        assert counters == {"cache.hits": 1, "cache.misses": 1, "cache.writes": 1}

    def test_entries_are_sharded_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        assert cache.path_for(KEY).parent.name == "ab"
        assert len(cache) == 1

    def test_corrupted_entry_is_quarantined(self, tmp_path, counters):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.path_for(KEY).write_text("{not json at all")
        assert cache.get(KEY) is None
        assert counters["cache.corrupt"] == 1
        assert not cache.path_for(KEY).exists()
        # After quarantine a fresh put works again.
        cache.put(KEY, {"x": 2})
        assert cache.get(KEY) == {"x": 2}

    def test_mismatched_key_is_corruption(self, tmp_path, counters):
        cache = ResultCache(tmp_path)
        other = "cd" + "1" * 62
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other).write_text(
            json.dumps({"format": CACHE_FORMAT, "key": KEY, "payload": {"x": 1}})
        )
        assert cache.get(other) is None
        assert counters["cache.corrupt"] == 1

    def test_stale_format_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(KEY).write_text(
            json.dumps({"format": CACHE_FORMAT + 1, "key": KEY, "payload": {"x": 1}})
        )
        assert cache.get(KEY) is None

    def test_none_payload_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CacheError):
            cache.put(KEY, None)

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.put("cd" + "1" * 62, {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0


class TestNullCache:
    def test_never_stores(self, counters):
        cache = NullCache()
        cache.put(KEY, {"x": 1})
        assert cache.get(KEY) is None
        assert len(cache) == 0
        assert counters == {"cache.misses": 1}


class TestDefaultCacheDir:
    @pytest.mark.parametrize(
        "variable, value, expected",
        [
            ("REPRO_CACHE_DIR", "~/cc", "cc"),
            ("XDG_CACHE_HOME", "~/xdg", "xdg/graphiti-repro"),
        ],
    )
    def test_tilde_expands_to_home(self, tmp_path, monkeypatch, variable, value, expected):
        # A quoted '~' reaches the environment unexpanded; it must not
        # become a directory named '~' under the working directory.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv(variable, value)
        assert default_cache_dir() == tmp_path / expected
