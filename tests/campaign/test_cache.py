"""Unit tests for the content-addressed campaign result cache."""

import gc
import warnings

import numpy as np
import pytest

from repro.campaign.cache import (
    CACHE_DIR_ENV,
    CampaignCache,
    _digest,
    default_cache_dir,
)


@pytest.fixture
def cache(tmp_path):
    return CampaignCache(tmp_path / "store")


class TestRoundTrip:
    def test_store_then_load(self, cache):
        values = np.arange(12.0).reshape(3, 4)
        cache.store("abc123", values, {"spec": "demo"})
        loaded = cache.load("abc123")
        assert np.array_equal(loaded, values)

    def test_missing_key_is_none(self, cache):
        assert cache.load("nope") is None

    def test_store_creates_directory(self, tmp_path):
        cache = CampaignCache(tmp_path / "deep" / "nested")
        cache.store("k", np.ones(2), {})
        assert cache.load("k") is not None

    def test_overwrite_replaces_entry(self, cache):
        cache.store("k", np.ones(2), {})
        cache.store("k", np.zeros(2), {})
        assert np.array_equal(cache.load("k"), np.zeros(2))

    def test_spec_json_rides_along(self, cache):
        path = cache.store("k", np.ones(2), {"n_draws": 5})
        with np.load(path) as entry:
            assert "n_draws" in str(entry["spec_json"])


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache):
        cache.store("k", np.ones(2), {})
        cache.path_for("k").write_bytes(b"not a zip archive")
        assert cache.load("k") is None

    def test_truncated_entry_is_a_miss(self, cache):
        cache.store("k", np.ones(2), {})
        raw = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(raw[: len(raw) // 2])
        assert cache.load("k") is None

    def test_digest_mismatch_is_a_miss_and_discarded(self, cache):
        path = cache.path_for("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            values=np.ones(2),
            digest=np.array("0" * 64),
            spec_json=np.array("{}"),
        )
        assert cache.load("k") is None
        assert not path.exists()

    def test_bad_entries_close_their_file(self, cache):
        """A corrupt or truncated entry must not leak its file handle."""
        cache.store("k", np.ones(2), {})
        cache.path_for("k").write_bytes(b"not a zip archive")
        chunk = cache.store_chunk("k", 0, 4, np.ones(4), {})
        chunk.write_bytes(chunk.read_bytes()[: chunk.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cache.load("k") is None
            assert cache.load_chunk("k", 0, 4) is None
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_no_temp_files_left_behind(self, cache):
        cache.store("k", np.ones(2), {})
        leftovers = [p for p in cache.directory.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_clear(self, cache):
        cache.store("k1", np.ones(2), {})
        cache.store("k2", np.ones(2), {})
        assert cache.clear() == 2
        assert cache.load("k1") is None
        assert CampaignCache(cache.directory / "missing").clear() == 0


class TestChunkEntries:
    def test_store_then_load_chunk(self, cache):
        values = np.arange(8.0)
        cache.store_chunk("k", 16, 24, values, {"spec": "demo"})
        assert np.array_equal(cache.load_chunk("k", 16, 24), values)
        assert cache.load_chunk("k", 0, 8) is None
        # Chunks never shadow the full-campaign entry.
        assert cache.load("k") is None

    def test_chunk_digest_mismatch_is_discarded_not_served(self, cache):
        path = cache.chunk_path_for("k", 0, 4)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            values=np.ones(4),
            digest=np.array("0" * 64),
            start=np.array(0),
            stop=np.array(4),
            spec_json=np.array("{}"),
        )
        assert cache.load_chunk("k", 0, 4) is None
        assert not path.exists()

    def test_corrupted_chunk_bytes_are_discarded_not_served(self, cache):
        path = cache.store_chunk("k", 0, 4, np.ones(4), {})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.load_chunk("k", 0, 4) is None
        assert not path.exists()

    def test_truncated_chunk_is_discarded_not_served(self, cache):
        path = cache.store_chunk("k", 0, 4, np.ones(4), {})
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load_chunk("k", 0, 4) is None
        assert not path.exists()

    def test_wrong_length_chunk_is_discarded(self, cache):
        # An entry whose payload does not match its declared unit range.
        path = cache.chunk_path_for("k", 0, 4)
        path.parent.mkdir(parents=True, exist_ok=True)
        values = np.ones(3)
        np.savez(
            path,
            values=values,
            digest=np.array(_digest(values)),
            start=np.array(0),
            stop=np.array(4),
            spec_json=np.array("{}"),
        )
        assert cache.load_chunk("k", 0, 4) is None
        assert not path.exists()

    def test_iter_chunks_yields_valid_entries_in_order(self, cache):
        cache.store_chunk("k", 8, 12, np.full(4, 2.0), {})
        cache.store_chunk("k", 0, 8, np.full(8, 1.0), {})
        corrupt = cache.store_chunk("k", 12, 16, np.full(4, 3.0), {})
        corrupt.write_bytes(b"garbage")
        chunks = list(cache.iter_chunks("k"))
        assert [(start, stop) for start, stop, _ in chunks] == [(0, 8), (8, 12)]
        assert not corrupt.exists()
        assert list(cache.iter_chunks("missing")) == []

    def test_clear_removes_chunk_entries_too(self, cache):
        cache.store("k", np.ones(2), {})
        cache.store_chunk("k", 0, 2, np.ones(2), {})
        cache.store_chunk("k", 2, 4, np.ones(2), {})
        assert cache.clear() == 3
        assert not cache.chunk_dir_for("k").exists()


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().name == "campaigns"
