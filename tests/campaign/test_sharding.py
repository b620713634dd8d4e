"""Sharded, resumable campaign execution and the gather merge step.

The acceptance properties of distributed execution, end to end:

* a campaign split into shards and gathered is *bitwise identical* to an
  unsharded run (regardless of executor mix or chunk size),
* a campaign killed mid-run resumes from its checkpointed chunks — the
  second run serves the completed cells from cache and recomputes none
  of them,
* corrupted checkpoints are detected, discarded and recomputed.
"""

import shutil

import numpy as np
import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.engine import (
    _cache_key,
    gather_campaign,
    run_campaign,
)
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.core.protocols import Protocol
from repro.exceptions import IncompleteCampaignError, InvalidParameterError


class CountingExecutor(SerialExecutor):
    """Serial executor that counts the units it actually evaluates."""

    def __init__(self):
        self.units_evaluated = 0

    def run(self, batches, progress=None):
        self.units_evaluated += sum(len(batch) for batch in batches)
        return super().run(batches, progress=progress)


class FailingExecutor(SerialExecutor):
    """Serial executor that dies after a fixed number of ``run`` calls.

    The engine issues one ``run`` call per chunk, so this simulates a
    campaign killed mid-flight with some chunks already checkpointed.
    """

    def __init__(self, calls_before_failure):
        self.calls_before_failure = calls_before_failure
        self.calls = 0

    def run(self, batches, progress=None):
        if self.calls >= self.calls_before_failure:
            raise RuntimeError("injected mid-campaign failure")
        self.calls += 1
        return super().run(batches, progress=progress)


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
    """The unsharded, uncached single-pass result."""
    return run_campaign(spec, executor="vectorized")


class TestShardedExecution:
    def test_shard_evaluates_only_its_slice(self, spec, reference, tmp_path):
        shard = spec.shard(1, 3)
        result = run_campaign(spec, shard=shard, cache=tmp_path, chunk_size=16)
        assert result.shard == shard
        assert result.cells_computed == shard.n_units
        flat = result.values.ravel()
        reference_flat = reference.values.ravel()
        start, stop = shard.unit_range
        assert np.array_equal(flat[start:stop], reference_flat[start:stop])
        outside = np.ones(spec.n_units, dtype=bool)
        outside[start:stop] = False
        assert np.all(np.isnan(flat[outside]))

    def test_sharded_then_gathered_is_bitwise_identical(
        self, spec, reference, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        # Mixed executors across shards: bitwise equivalence is what makes
        # the shard artifacts interchangeable.
        executors = ("serial", "vectorized", "vectorized", "vectorized")
        for index, executor in enumerate(executors):
            run_campaign(
                spec,
                shard=spec.shard(index, len(executors)),
                cache=cache,
                chunk_size=16,
                executor=executor,
            )
        gathered = gather_campaign(spec, cache)
        assert gathered.values.shape == reference.values.shape
        assert gathered.values.tobytes() == reference.values.tobytes()
        assert gathered.from_cache
        # The gather also published the full entry: a later unsharded run
        # is a pure cache hit.
        rerun = run_campaign(spec, cache=cache)
        assert rerun.from_cache
        assert np.array_equal(rerun.values, reference.values)

    def test_shard_accepts_index_count_tuple(self, spec, tmp_path):
        result = run_campaign(spec, shard=(0, 2), cache=tmp_path)
        assert result.shard == spec.shard(0, 2)

    def test_shard_progress_totals_are_shard_local(self, spec, tmp_path):
        ticks = []
        shard = spec.shard(2, 3)
        run_campaign(
            spec,
            shard=shard,
            cache=tmp_path,
            chunk_size=16,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks[-1] == (shard.n_units, shard.n_units)

    def test_foreign_shard_rejected(self, spec, paper_gains, tmp_path):
        other = CampaignSpec(
            protocols=(Protocol.MABC,), powers_db=(10.0,), gains=(paper_gains,)
        )
        with pytest.raises(InvalidParameterError):
            run_campaign(spec, shard=other.shard(0, 2), cache=tmp_path)

    def test_gather_with_missing_shards_raises(self, spec, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(spec, shard=spec.shard(0, 3), cache=cache, chunk_size=16)
        run_campaign(spec, shard=spec.shard(2, 3), cache=cache, chunk_size=16)
        with pytest.raises(IncompleteCampaignError) as excinfo:
            gather_campaign(spec, cache)
        start, stop = spec.shard(1, 3).unit_range
        assert excinfo.value.missing == ((start, stop),)
        assert f"[{start}, {stop})" in str(excinfo.value)

    def test_gather_requires_a_cache(self, spec):
        with pytest.raises(InvalidParameterError):
            gather_campaign(spec, cache=False)


class TestResumption:
    def test_interrupted_campaign_resumes_from_chunks(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        flaky = FailingExecutor(calls_before_failure=3)
        with pytest.raises(RuntimeError):
            run_campaign(spec, executor=flaky, cache=cache, chunk_size=16)
        # Three chunks of 16 cells were checkpointed before the crash.
        counting = CountingExecutor()
        result = run_campaign(spec, executor=counting, cache=cache, chunk_size=16)
        assert result.cells_from_cache == 48
        assert result.cells_computed == spec.n_units - 48
        # None of the completed chunks were recomputed.
        assert counting.units_evaluated == spec.n_units - 48
        assert np.array_equal(result.values, reference.values)

    def test_completed_campaign_reruns_entirely_from_chunks(self, spec, tmp_path):
        cache = CampaignCache(tmp_path)
        first = run_campaign(spec, cache=cache, chunk_size=16)
        # Drop the full entry: the chunk checkpoints alone must serve the
        # rerun without any recomputation.
        cache.path_for(_cache_key(spec)).unlink()
        counting = CountingExecutor()
        second = run_campaign(spec, executor=counting, cache=cache, chunk_size=16)
        assert second.from_cache
        assert second.cells_from_cache == spec.n_units
        assert second.cells_computed == 0
        assert counting.units_evaluated == 0
        assert np.array_equal(first.values, second.values)

    def test_corrupted_chunk_is_recomputed_not_served(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(spec, cache=cache, chunk_size=16)
        key = _cache_key(spec)
        cache.path_for(key).unlink()
        chunk_path = cache.chunk_path_for(key, 16, 32)
        # Silent payload corruption: perturb the stored values but keep the
        # original header and its digest — only the digest check can
        # catch this.
        raw = chunk_path.read_bytes()
        header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        tampered = np.frombuffer(raw[header_end:], dtype="<f8") + 1e-3
        chunk_path.write_bytes(raw[:header_end] + tampered.astype("<f8").tobytes())
        counting = CountingExecutor()
        result = run_campaign(spec, executor=counting, cache=cache, chunk_size=16)
        # Exactly the poisoned chunk was recomputed — and never served.
        assert counting.units_evaluated == 16
        assert result.cells_computed == 16
        assert result.cells_from_cache == spec.n_units - 16
        assert np.array_equal(result.values, reference.values)

    def test_shard_rerun_is_served_from_the_full_entry(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(spec, cache=cache, chunk_size=16)
        # Wipe the chunk entries: only the full-campaign entry remains —
        # and a chunk size of 7 would not line up with them anyway.
        shutil.rmtree(cache.chunk_dir_for(_cache_key(spec)))
        counting = CountingExecutor()
        shard = spec.shard(1, 3)
        result = run_campaign(
            spec, shard=shard, cache=cache, executor=counting, chunk_size=7
        )
        assert result.from_cache
        assert counting.units_evaluated == 0
        assert result.cells_from_cache == shard.n_units
        start, stop = shard.unit_range
        assert np.array_equal(
            result.values.ravel()[start:stop],
            reference.values.ravel()[start:stop],
        )

    def test_process_pool_is_reused_across_chunks(self, spec, tmp_path, monkeypatch):
        from repro.campaign import executors as executors_module

        real_pool = executors_module.ProcessPoolExecutor
        created = []

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", counting_pool)
        executor = executors_module.MultiprocessExecutor(processes=2)
        submissions = []
        run_chunks = executor.run_chunks

        def recording(jobs):
            jobs = list(jobs)
            submissions.append(len(jobs))
            return run_chunks(jobs)

        executor.run_chunks = recording
        result = run_campaign(spec, executor=executor, cache=tmp_path, chunk_size=16)
        assert result.cells_computed == spec.n_units
        # Every chunk goes out as a future in one submission round, all
        # on one pool rather than one pool per chunk.
        assert submissions == [-(-spec.n_units // 16)]
        assert len(created) == 1

    def test_invalid_chunk_size_rejected(self, spec):
        with pytest.raises(InvalidParameterError):
            run_campaign(spec, chunk_size=0)

    def test_untrusted_executor_does_not_write_chunks(self, spec, tmp_path):
        class ZeroExecutor:
            name = "zero"

            def run(self, batches, progress=None):
                return [np.zeros(len(batch)) for batch in batches]

        cache = CampaignCache(tmp_path)
        run_campaign(spec, executor=ZeroExecutor(), cache=cache, chunk_size=16)
        assert list(cache.iter_chunks(_cache_key(spec))) == []
