"""On-disk content-addressed store for campaign results.

Results are keyed by the campaign spec's content hash (plus the kernel
version), so a repeated benchmark or CI run of the same grid is a cache
hit and costs one ``np.load``. Because every executor produces bitwise
identical values (see :mod:`repro.campaign.executors`), the key does not —
and must not — include the executor.

Layout: one ``<key>.npz`` per full campaign under the cache directory,
containing the result array and the spec's canonical JSON for post-hoc
inspection — plus, for sharded/resumable execution, a ``<key>.chunks/``
directory of per-chunk entries (``units-<start>-<stop>.npz``) covering
flat unit ranges of the grid. Independent shard processes coordinate only
through this directory: each writes the chunks it computed, and a gather
reassembles them.

Every entry carries a SHA-256 digest of its value bytes. Entries whose
digest (or declared unit range) does not verify — bit rot, truncation,
torn concurrent copies — are *discarded and recomputed*, never served.
Writes are atomic (temp file + rename) so concurrent runs and interrupted
processes can never publish a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

__all__ = ["CampaignCache", "default_cache_dir"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CAMPAIGN_CACHE"

#: Chunk entry file names inside a ``<key>.chunks/`` directory.
_CHUNK_NAME_RE = re.compile(r"^units-(\d+)-(\d+)\.npz$")

#: Errors that mean "this entry is unreadable", not "the caller misused us".
_ENTRY_ERRORS = (OSError, ValueError, KeyError, BadZipFile)


def default_cache_dir() -> Path:
    """The campaign cache directory.

    ``$REPRO_CAMPAIGN_CACHE`` when set, otherwise
    ``~/.cache/repro/campaigns``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "campaigns"


def _digest(values: np.ndarray) -> str:
    """Hex SHA-256 of an array's raw little-endian float bytes."""
    contiguous = np.ascontiguousarray(values)
    return hashlib.sha256(contiguous.tobytes()).hexdigest()


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
        return self.directory / f"{key}.npz"

    def chunk_dir_for(self, key: str) -> Path:
        """The per-chunk entry directory for a content key."""
        return self.directory / f"{key}.chunks"

    def chunk_path_for(self, key: str, start: int, stop: int) -> Path:
        """The chunk entry file covering flat units ``[start, stop)``."""
        return self.chunk_dir_for(key) / f"units-{start:010d}-{stop:010d}.npz"

    def _write_entry(self, path: Path, arrays: dict) -> Path:
        """Atomically write an ``.npz`` entry (temp file + rename).

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
                np.savez(handle, **arrays)
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
                    data = path.read_bytes()
                    path.write_bytes(data[: max(1, len(data) // 2)])
                except OSError:
                    pass  # a concurrent reader already discarded the entry
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

    def load(self, key: str) -> np.ndarray | None:
        """The cached full-campaign array for ``key``, or ``None`` on a miss.

        Corrupt or truncated entries are discarded and count as misses:
        the caller recomputes and overwrites them.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            # np.load leaks the handle it opened when the archive does not
            # parse, so the file is opened (and always closed) here.
            with open(path, "rb") as handle, np.load(handle) as entry:
                values = np.asarray(entry["values"])
                if "digest" in entry and str(entry["digest"]) != _digest(values):
                    raise ValueError("digest mismatch")
                return values
        except _ENTRY_ERRORS:
            self._discard(path)
            return None

    def store(self, key: str, values: np.ndarray, spec_dict: dict) -> Path:
        """Atomically persist a full-campaign array under ``key``.

        The spec's canonical JSON rides along inside the archive so cache
        entries remain self-describing; a digest of the value bytes makes
        corruption detectable on load.
        """
        return self._write_entry(
            self.path_for(key),
            {
                "values": values,
                "digest": np.array(_digest(values)),
                "spec_json": np.array(json.dumps(spec_dict, sort_keys=True)),
            },
        )

    def _read_chunk(self, path: Path, start: int, stop: int) -> np.ndarray | None:
        """Load and verify one chunk entry; discard it on any mismatch."""
        try:
            with open(path, "rb") as handle, np.load(handle) as entry:
                values = np.asarray(entry["values"])
                if int(entry["start"]) != start or int(entry["stop"]) != stop:
                    raise ValueError("unit range mismatch")
                if values.shape != (stop - start,):
                    raise ValueError("chunk length mismatch")
                if str(entry["digest"]) != _digest(values):
                    raise ValueError("digest mismatch")
                return values
        except _ENTRY_ERRORS:
            self._discard(path)
            return None

    def load_chunk(self, key: str, start: int, stop: int) -> np.ndarray | None:
        """The cached values of flat units ``[start, stop)``, or ``None``.

        A chunk whose digest, declared range or length does not verify is
        deleted and reported as a miss, so a corrupted checkpoint is
        recomputed — never silently returned.
        """
        path = self.chunk_path_for(key, start, stop)
        if not path.exists():
            return None
        return self._read_chunk(path, start, stop)

    def store_chunk(
        self, key: str, start: int, stop: int, values: np.ndarray, spec_dict: dict
    ) -> Path:
        """Atomically persist the values of flat units ``[start, stop)``."""
        return self._write_entry(
            self.chunk_path_for(key, start, stop),
            {
                "values": values,
                "digest": np.array(_digest(values)),
                "start": np.array(int(start)),
                "stop": np.array(int(stop)),
                "spec_json": np.array(json.dumps(spec_dict, sort_keys=True)),
            },
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
            values = self._read_chunk(path, start, stop)
            if values is not None:
                yield start, stop, values

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for entry in self.directory.glob("*.npz"):
            entry.unlink()
            removed += 1
        for chunk_dir in self.directory.glob("*.chunks"):
            for entry in chunk_dir.glob("*.npz"):
                entry.unlink()
                removed += 1
            try:
                chunk_dir.rmdir()
            except OSError:
                pass
        return removed
