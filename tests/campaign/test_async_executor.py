"""AsyncExecutor: chunk futures with work-stealing must be bitwise
identical to serial execution, and the engine's chunk-future seam must
checkpoint and resume exactly like the sequential loop."""

import numpy as np
import pytest

from repro.campaign import executors
from repro.campaign.cache import ENTRY_SUFFIX, CampaignCache
from repro.campaign.engine import gather_campaign, run_campaign
from repro.campaign.executors import (
    AsyncExecutor,
    SerialExecutor,
    UnitBatch,
    get_executor,
)
from repro.campaign.spec import CampaignSpec, FadingSpec, GridAxis, LinkSimSpec
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def spec():
    from repro.channels.gains import LinkGains

    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
        fading=FadingSpec(n_draws=9, seed=41),
    )


@pytest.fixture(scope="module")
def reference(spec):
    return run_campaign(spec, executor="serial")


class TestBitwiseEquivalence:
    def test_run_matches_serial(self, spec, reference):
        result = run_campaign(spec, executor=AsyncExecutor(processes=3))
        assert result.values.tobytes() == reference.values.tobytes()

    def test_single_worker_matches_serial(self, spec, reference):
        result = run_campaign(spec, executor=AsyncExecutor(processes=1))
        assert result.values.tobytes() == reference.values.tobytes()

    def test_chunked_cached_run_matches_serial(self, spec, reference, tmp_path):
        result = run_campaign(
            spec,
            executor=AsyncExecutor(processes=2),
            cache=tmp_path,
            chunk_size=5,
        )
        assert result.values.tobytes() == reference.values.tobytes()
        assert result.cells_computed == spec.n_units

    def test_operational_cells_match_serial(self):
        from repro.channels.gains import LinkGains

        op_spec = CampaignSpec(
            protocols=(Protocol.DT, Protocol.MABC),
            powers_db=(10.0,),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            link=LinkSimSpec(n_rounds=2, payload_bits=32, seed=5),
        )
        serial = run_campaign(op_spec, executor="serial")
        futures = run_campaign(op_spec, executor=AsyncExecutor(processes=2))
        assert futures.values.tobytes() == serial.values.tobytes()

    def test_all_protocols_and_node_powers_match_serial(self):
        """Per-node ``(n, 3)`` power batches, chunks that split blocks."""
        from repro.channels.gains import LinkGains

        wide_spec = CampaignSpec(
            protocols=tuple(Protocol),
            powers_db=(0.0, 10.0),
            gains=(LinkGains.from_db(-7.0, 0.0, 5.0),),
            fading=FadingSpec(n_draws=9, seed=17),
            extra_axes=(
                GridAxis(
                    name="power_allocation",
                    values=(
                        {"node_powers_db": (0.0, 0.0, 0.0)},
                        {"node_powers_db": (-3.0, 2.0, 4.0)},
                    ),
                ),
            ),
        )
        serial = run_campaign(wide_spec, executor="serial")
        vectorized = run_campaign(wide_spec, executor="vectorized")
        assert vectorized.values.tobytes() == serial.values.tobytes()
        for name in ("async", "process"):
            pooled = run_campaign(
                wide_spec,
                executor=get_executor(name, processes=2),
                chunk_size=7,
            )
            assert pooled.values.tobytes() == serial.values.tobytes(), name


class TestChunkFutureSeam:
    def test_one_kernel_call_per_analytic_batch(self, spec, monkeypatch):
        draws = spec.sample_gain_draws().reshape(-1, 3)
        batches = [
            UnitBatch(
                protocol=protocol,
                gab=draws[:, 0],
                gar=draws[:, 1],
                gbr=draws[:, 2],
                power=np.full(draws.shape[0], 10.0),
            )
            for protocol in (Protocol.TDBC, Protocol.HBC)
        ]
        reference = np.concatenate(SerialExecutor().run(batches))
        calls = []
        kernel = executors.batched_sum_rates

        def counting(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(executors, "batched_sum_rates", counting)
        values = executors._evaluate_batch_list(batches)
        assert calls == [Protocol.TDBC, Protocol.HBC]
        assert values.tobytes() == reference.tobytes()

    def test_run_chunks_yields_every_tag(self, spec):
        draws = spec.sample_gain_draws().reshape(-1, 3)
        batch = UnitBatch(
            protocol=Protocol.MABC,
            gab=draws[:, 0],
            gar=draws[:, 1],
            gbr=draws[:, 2],
            power=np.full(draws.shape[0], 10.0),
        )
        jobs = [((lo, lo + 3), [batch.slice(lo, lo + 3)]) for lo in range(0, 9, 3)]
        executor = AsyncExecutor(processes=2)
        with executor.reserve():
            results = dict(executor.run_chunks(jobs))
        assert set(results) == {(0, 3), (3, 6), (6, 9)}
        reference = SerialExecutor().run([batch])[0]
        for (lo, hi), values in results.items():
            assert values.tobytes() == reference[lo:hi].tobytes()

    def test_checkpoints_written_per_chunk(self, spec, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(
            spec, executor=AsyncExecutor(processes=2), cache=cache, chunk_size=6
        )
        key_dirs = list(tmp_path.glob("*.chunks"))
        assert len(key_dirs) == 1
        entries = list(key_dirs[0].glob(f"units-*{ENTRY_SUFFIX}"))
        assert len(entries) == spec.n_units // 6

    def test_resumes_from_partial_checkpoints(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        shard = spec.shard(0, 2)
        run_campaign(
            spec,
            executor=AsyncExecutor(processes=2),
            cache=cache,
            shard=shard,
            chunk_size=6,
        )
        resumed = run_campaign(
            spec, executor=AsyncExecutor(processes=2), cache=cache, chunk_size=6
        )
        assert resumed.cells_from_cache > 0
        assert resumed.cells_computed == spec.n_units - resumed.cells_from_cache
        assert resumed.values.tobytes() == reference.values.tobytes()

    def test_shard_gather_matches_unsharded(self, spec, reference, tmp_path):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            run_campaign(
                spec,
                executor=AsyncExecutor(processes=2),
                cache=cache,
                shard=spec.shard(index, 3),
                chunk_size=4,
            )
        gathered = gather_campaign(spec, cache)
        assert gathered.values.tobytes() == reference.values.tobytes()

    def test_progress_reaches_total(self, spec, tmp_path):
        seen = []
        run_campaign(
            spec,
            executor=AsyncExecutor(processes=2),
            cache=tmp_path,
            chunk_size=6,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (spec.n_units, spec.n_units)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)


class TestConstruction:
    def test_registry_resolves_async(self):
        executor = get_executor("async", processes=2)
        assert isinstance(executor, AsyncExecutor)
        assert executor.processes == 2

    def test_rejects_bad_process_count(self):
        with pytest.raises(InvalidParameterError):
            AsyncExecutor(processes=0)

    def test_reserve_is_reentrant(self, spec, reference):
        executor = AsyncExecutor(processes=2)
        with executor.reserve():
            pool = executor._pool
            with executor.reserve():
                assert executor._pool is pool
            assert executor._pool is pool
            result = run_campaign(spec, executor=executor)
        assert executor._pool is None
        assert result.values.tobytes() == reference.values.tobytes()
