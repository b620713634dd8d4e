"""Cache-corruption recovery under concurrent access.

A shared cache directory is the only coordination point between
executors (shards, daemon requests, resumed runs), so a damaged entry
must never poison any of them: every reader detects the bad digest,
discards the entry, recomputes the cells, and still produces the
bitwise-identical grid — even while another executor is hitting the
same directory.
"""

import threading

import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.engine import _cache_key, run_campaign
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.core.protocols import Protocol

CHUNK = 16


@pytest.fixture
def spec(paper_gains):
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(paper_gains,),
        fading=FadingSpec(n_draws=20, seed=11),
    )


@pytest.fixture
def reference(spec):
    return run_campaign(spec, executor="serial")


def _damage_one_chunk(cache, spec):
    """Checkpoint the campaign, then truncate one chunk and drop the
    full entry, leaving a cache that looks resumable but is partly bad."""
    run_campaign(spec, executor="serial", cache=cache, chunk_size=CHUNK)
    key = _cache_key(spec)
    cache.path_for(key).unlink()
    chunk_path = cache.chunk_path_for(key, CHUNK, 2 * CHUNK)
    chunk_path.write_bytes(chunk_path.read_bytes()[: chunk_path.stat().st_size // 2])
    return chunk_path


class TestConcurrentRecovery:
    def test_two_executors_recover_bitwise_identically(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        _damage_one_chunk(cache, spec)

        results = {}
        errors = []

        def rerun(tag, executor):
            try:
                result = run_campaign(
                    spec,
                    executor=executor,
                    cache=CampaignCache(tmp_path),
                    chunk_size=CHUNK,
                )
                results[tag] = result
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((tag, error))

        threads = [
            threading.Thread(target=rerun, args=("serial", "serial")),
            threading.Thread(target=rerun, args=("vectorized", "vectorized")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert not errors, errors
        for tag in ("serial", "vectorized"):
            assert results[tag].values.tobytes() == reference.values.tobytes(), tag

    def test_cache_is_healthy_after_recovery(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        _damage_one_chunk(cache, spec)
        recovered = run_campaign(spec, executor="serial", cache=cache, chunk_size=CHUNK)
        assert recovered.values.tobytes() == reference.values.tobytes()
        # The recomputed run healed the store: a fresh run is a pure hit.
        healed = run_campaign(spec, executor="serial", cache=cache)
        assert healed.from_cache
        assert healed.values.tobytes() == reference.values.tobytes()

    def test_recovery_recomputes_only_the_damaged_cells(
        self, spec, reference, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        _damage_one_chunk(cache, spec)
        result = run_campaign(spec, executor="serial", cache=cache, chunk_size=CHUNK)
        assert result.cells_computed == CHUNK
        assert result.cells_from_cache == spec.n_units - CHUNK
        assert result.values.tobytes() == reference.values.tobytes()
