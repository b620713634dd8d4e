"""On-disk content-addressed store for campaign results.

Results are keyed by the campaign spec's content hash (plus the kernel
version), so a repeated benchmark or CI run of the same grid is a cache
hit and costs one flat file read. Because every executor produces bitwise
identical values (see :mod:`repro.campaign.executors`), the key does not —
and must not — include the executor.

Layout: one ``<key>.f64`` per full campaign under the cache directory —
plus, for sharded/resumable execution, a ``<key>.chunks/`` directory of
per-chunk entries (``units-<start>-<stop>.f64``) covering flat unit
ranges of the grid. Independent shard processes coordinate only through
this directory: each writes the chunks it computed, and a gather
reassembles them.

Every entry is one flat file, in this order:

1. the magic line ``repro-campaign-entry 1``;
2. one JSON header line: the value ``shape``, the SHA-256 ``digest`` of
   the value bytes, the spec's canonical JSON as ``spec`` (so entries
   stay self-describing) and, for a chunk, its unit range
   ``start``/``stop``;
3. the values as C-order little-endian float64 bytes.

A read is one ``read_bytes``, a parse of the short header, one SHA-256
and one copy into a writable array. Entries whose digest (or declared
shape or unit range) does not verify — bit rot, truncation, torn
concurrent copies, a header without a digest — are *discarded and
recomputed*, never served. Writes are atomic (temp file + rename) so
concurrent runs and interrupted processes can never publish a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["ENTRY_SUFFIX", "CampaignCache", "default_cache_dir"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CAMPAIGN_CACHE"

#: File extension of every entry, full campaigns and chunks alike.
ENTRY_SUFFIX = ".f64"

#: Extension of entries written by older releases in the ``.npz`` zip
#: container: never read, only reclaimed by :meth:`CampaignCache.clear`.
_LEGACY_SUFFIX = ".npz"

#: First line of every entry file.
_MAGIC = b"repro-campaign-entry 1\n"

#: Chunk entry file names inside a ``<key>.chunks/`` directory.
_CHUNK_NAME_RE = re.compile(rf"^units-(\d+)-(\d+){re.escape(ENTRY_SUFFIX)}$")

#: Errors that mean "this entry is unreadable", not "the caller misused us".
_ENTRY_ERRORS = (OSError, ValueError, KeyError, TypeError)


def default_cache_dir() -> Path:
    """The campaign cache directory.

    ``$REPRO_CAMPAIGN_CACHE`` when set, otherwise
    ``~/.cache/repro/campaigns``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "campaigns"


def _encode_entry(values: np.ndarray, **fields) -> bytes:
    """One entry file's bytes: magic line, JSON header line, float64 bytes."""
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    header = {
        "shape": list(np.shape(values)),
        "digest": hashlib.sha256(payload).hexdigest(),
        **fields,
    }
    return b"".join(
        (_MAGIC, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", payload)
    )


def _decode_entry(data: bytes) -> tuple[dict, np.ndarray]:
    """Parse and verify one entry file; raise on any defect.

    The values come back as a fresh, writable, native-order, C-contiguous
    float64 array of the header's shape.
    """
    if not data.startswith(_MAGIC):
        raise ValueError("not a campaign store entry")
    end = data.index(b"\n", len(_MAGIC))
    header = json.loads(data[len(_MAGIC) : end])
    shape = tuple(int(n) for n in header["shape"])
    payload = memoryview(data)[end + 1 :]
    if len(payload) != 8 * math.prod(shape):
        raise ValueError("value byte count does not match the shape")
    if hashlib.sha256(payload).hexdigest() != header["digest"]:
        raise ValueError("digest mismatch")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return header, values.reshape(shape)


class CampaignCache:
    """A directory of content-addressed campaign result files."""

    def __init__(self, directory=None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self._fault_injector = None

    def with_injector(self, injector) -> "CampaignCache":
        """A view of this store whose writes consult a fault injector.

        Chaos-testing seam: the engine wraps the store per run so
        ``torn-write`` rules can sabotage entry writes deterministically.
        The returned view shares the directory; the original store stays
        fault-free.
        """
        view = CampaignCache(self.directory)
        view._fault_injector = injector
        return view

    def path_for(self, key: str) -> Path:
        """The full-campaign entry file for a content key."""
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def chunk_dir_for(self, key: str) -> Path:
        """The per-chunk entry directory for a content key."""
        return self.directory / f"{key}.chunks"

    def chunk_path_for(self, key: str, start: int, stop: int) -> Path:
        """The chunk entry file covering flat units ``[start, stop)``."""
        return self.chunk_dir_for(key) / f"units-{start:010d}-{stop:010d}{ENTRY_SUFFIX}"

    def _write_entry(self, path: Path, data: bytes) -> Path:
        """Atomically write one entry's bytes (temp file + rename).

        The entry only ever becomes visible through ``os.replace`` of a
        fully-written temp file, so no reader — concurrent or subsequent —
        can observe a half-written entry at the final path.  An armed
        fault injector can sabotage the write for chaos tests:
        ``crash`` discards the temp file before publication (a writer
        killed mid-write), ``corrupt`` truncates the entry *after*
        publication (bit rot / torn copy), which digest verification must
        catch on the next read.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            fault = (
                self._fault_injector.cache_write(path.name)
                if self._fault_injector is not None
                else None
            )
            if fault is not None and fault.mode == "crash":
                os.unlink(tmp_name)
                return path
            os.replace(tmp_name, path)
            if fault is not None:
                try:
                    path.write_bytes(data[: max(1, len(data) // 2)])
                except OSError:
                    pass  # the directory was cleared meanwhile
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @staticmethod
    def _discard(path: Path) -> None:
        """Delete a corrupt entry so it is recomputed, not re-served."""
        try:
            path.unlink()
        except OSError:
            pass

    def _read_entry(
        self, path: Path, start: int | None = None, stop: int | None = None
    ) -> np.ndarray | None:
        """Load and verify one entry; ``None`` if it is missing or bad.

        A chunk read passes its unit range, which the header and the
        value count must both match.  Any defect discards the entry.
        """
        try:
            header, values = _decode_entry(path.read_bytes())
            if start is not None:
                if (header["start"], header["stop"]) != (start, stop):
                    raise ValueError("unit range mismatch")
                if values.shape != (stop - start,):
                    raise ValueError("chunk length mismatch")
            return values
        except FileNotFoundError:
            return None
        except _ENTRY_ERRORS:
            self._discard(path)
            return None

    def load(self, key: str) -> np.ndarray | None:
        """The cached full-campaign array for ``key``, or ``None`` on a miss.

        Corrupt or truncated entries are discarded and count as misses:
        the caller recomputes and overwrites them.
        """
        return self._read_entry(self.path_for(key))

    def store(self, key: str, values: np.ndarray, spec_dict: dict) -> Path:
        """Atomically persist a full-campaign array under ``key``.

        The spec's canonical JSON rides along in the header so cache
        entries remain self-describing; a digest of the value bytes makes
        corruption detectable on load.
        """
        return self._write_entry(
            self.path_for(key), _encode_entry(values, spec=spec_dict)
        )

    def load_chunk(self, key: str, start: int, stop: int) -> np.ndarray | None:
        """The cached values of flat units ``[start, stop)``, or ``None``.

        A chunk whose digest, declared range or length does not verify is
        deleted and reported as a miss, so a corrupted checkpoint is
        recomputed — never silently returned.
        """
        return self._read_entry(self.chunk_path_for(key, start, stop), start, stop)

    def store_chunk(
        self, key: str, start: int, stop: int, values: np.ndarray, spec_dict: dict
    ) -> Path:
        """Atomically persist the values of flat units ``[start, stop)``."""
        return self._write_entry(
            self.chunk_path_for(key, start, stop),
            _encode_entry(values, start=int(start), stop=int(stop), spec=spec_dict),
        )

    def iter_chunks(self, key: str):
        """Yield every valid ``(start, stop, values)`` chunk under ``key``.

        Entries are yielded in ascending unit order; corrupt entries are
        discarded and skipped.
        """
        chunk_dir = self.chunk_dir_for(key)
        if not chunk_dir.is_dir():
            return
        for path in sorted(chunk_dir.iterdir()):
            match = _CHUNK_NAME_RE.match(path.name)
            if match is None:
                continue
            start, stop = int(match.group(1)), int(match.group(2))
            values = self._read_entry(path, start, stop)
            if values is not None:
                yield start, stop, values

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Legacy ``.npz`` entries are removed too, so a store written by
        an older release can be reclaimed.
        """
        if not self.directory.exists():
            return 0
        chunk_dirs = list(self.directory.glob("*.chunks"))
        removed = 0
        for directory in (self.directory, *chunk_dirs):
            for suffix in (ENTRY_SUFFIX, _LEGACY_SUFFIX):
                for entry in directory.glob(f"*{suffix}"):
                    entry.unlink()
                    removed += 1
        for chunk_dir in chunk_dirs:
            try:
                chunk_dir.rmdir()
            except OSError:
                pass
        return removed
