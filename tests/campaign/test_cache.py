"""Unit tests for the content-addressed campaign result cache."""

import gc
import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.campaign.cache import (
    _MAGIC,
    CACHE_DIR_ENV,
    CampaignCache,
    default_cache_dir,
)


@pytest.fixture
def cache(tmp_path):
    return CampaignCache(tmp_path / "store")


def write_entry(path, values, **header):
    """Write a well-formed entry whose header fields the test controls.

    The shape and digest default to the true ones; a field set to
    ``None`` is left out of the header.
    """
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    fields = {
        "shape": list(np.shape(values)),
        "digest": hashlib.sha256(payload).hexdigest(),
        "spec": {},
        **header,
    }
    fields = {name: value for name, value in fields.items() if value is not None}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_MAGIC + json.dumps(fields).encode() + b"\n" + payload)
    return path


def read_header(path):
    """The JSON header line of an entry file."""
    magic, header, _ = path.read_bytes().split(b"\n", 2)
    assert magic + b"\n" == _MAGIC
    return json.loads(header)


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
        assert "n_draws" in json.dumps(read_header(path)["spec"])

    def test_loaded_array_is_writable_native_and_bit_exact(self, cache):
        values = np.arange(6.0).reshape(2, 3)
        # The NaN x86 makes of inf - inf, and a negative zero.
        values.flat[0] = np.array(0xFFF8000000000000, dtype="<u8").view("<f8")
        values.flat[1] = -0.0
        cache.store("k", values, {})
        cache.store_chunk("k", 0, 6, values.ravel(), {})
        for loaded in (cache.load("k"), cache.load_chunk("k", 0, 6)):
            assert loaded.dtype == np.float64 and loaded.dtype.isnative
            assert loaded.flags.writeable and loaded.flags.c_contiguous
            assert loaded.tobytes() == values.tobytes()
        assert cache.load("k").shape == (2, 3)


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache):
        cache.store("k", np.ones(2), {})
        cache.path_for("k").write_bytes(b"not a store entry")
        assert cache.load("k") is None

    def test_truncated_entry_is_a_miss(self, cache):
        cache.store("k", np.ones(2), {})
        raw = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(raw[: len(raw) // 2])
        assert cache.load("k") is None

    def test_digest_mismatch_is_a_miss_and_discarded(self, cache):
        path = write_entry(cache.path_for("k"), np.ones(2), digest="0" * 64)
        assert cache.load("k") is None
        assert not path.exists()

    def test_entry_without_digest_is_a_miss_and_discarded(self, cache):
        path = write_entry(cache.path_for("k"), np.ones(2), digest=None)
        assert "digest" not in read_header(path)
        assert cache.load("k") is None
        assert not path.exists()

    def test_legacy_npz_entry_is_ignored(self, cache):
        legacy = cache.directory / "k.npz"
        legacy_chunk = cache.chunk_dir_for("k") / "units-0000000000-0000000002.npz"
        legacy_chunk.parent.mkdir(parents=True)
        for path in (legacy, legacy_chunk):
            np.savez(path, values=np.ones(2), spec_json=np.array("{}"))
        assert cache.load("k") is None
        assert cache.load_chunk("k", 0, 2) is None
        assert list(cache.iter_chunks("k")) == []
        # Never read, so never judged corrupt and discarded either.
        assert legacy.exists() and legacy_chunk.exists()

    def test_bad_entries_close_their_file(self, cache):
        """A corrupt or truncated entry must not leak its file handle."""
        cache.store("k", np.ones(2), {})
        cache.path_for("k").write_bytes(b"not a store entry")
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

    def test_clear_reclaims_legacy_npz_entries(self, cache):
        cache.store("k1", np.ones(2), {})
        (cache.directory / "k0.npz").write_bytes(b"legacy entry")
        chunk_dir = cache.chunk_dir_for("k0")
        chunk_dir.mkdir()
        (chunk_dir / "units-0000000000-0000000002.npz").write_bytes(b"legacy")
        assert cache.clear() == 3
        assert list(cache.directory.iterdir()) == []


class TestChunkEntries:
    def test_store_then_load_chunk(self, cache):
        values = np.arange(8.0)
        cache.store_chunk("k", 16, 24, values, {"spec": "demo"})
        assert np.array_equal(cache.load_chunk("k", 16, 24), values)
        assert cache.load_chunk("k", 0, 8) is None
        # Chunks never shadow the full-campaign entry.
        assert cache.load("k") is None

    def test_chunk_digest_mismatch_is_discarded_not_served(self, cache):
        path = write_entry(
            cache.chunk_path_for("k", 0, 4),
            np.ones(4),
            digest="0" * 64,
            start=0,
            stop=4,
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
        # An entry whose payload does not match its declared unit range;
        # the digest itself verifies.
        path = write_entry(cache.chunk_path_for("k", 0, 4), np.ones(3), start=0, stop=4)
        assert cache.load_chunk("k", 0, 4) is None
        assert not path.exists()

    def test_chunk_header_range_mismatch_is_discarded(self, cache):
        # A verified entry whose header names another unit range than
        # its file name.
        path = write_entry(cache.chunk_path_for("k", 0, 4), np.ones(4), start=4, stop=8)
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
