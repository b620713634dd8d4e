"""Self-healing process pools: a dead worker never loses a campaign.

A worker killed mid-chunk (``os._exit`` via the ``worker-death`` fault)
breaks a ``concurrent.futures`` pool permanently.  The executors detect
the breakage, swap in a fresh pool (counted in ``pool_rebuilds``), and
the engine re-dispatches exactly the failed chunks — completed chunks
are already checkpointed and are never recomputed.  The recovered run is
bitwise-identical to a fault-free one.
"""

import os

import pytest

from repro.campaign import executors
from repro.campaign.engine import RetryPolicy, run_campaign
from repro.campaign.executors import AsyncExecutor
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.core.protocols import Protocol
from repro.faults import FaultPlan, FaultRule, chunk_site

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


@pytest.fixture
def spec(paper_gains):
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC),
        powers_db=(0.0, 10.0),
        gains=(paper_gains,),
        fading=FadingSpec(n_draws=12, seed=11),
    )


@pytest.fixture
def reference(spec):
    return run_campaign(spec, executor="vectorized")


def death_plan(lo, hi):
    """Kill the worker evaluating chunk [lo, hi) on its first attempt."""
    return FaultPlan(rules=(FaultRule(kind="worker-death", site=chunk_site(lo, hi)),))


class TestWorkerDeathRecovery:
    def test_async_executor_single_chunk_heals(self, spec, reference, tmp_path):
        executor = AsyncExecutor(processes=2)
        # One chunk spans the whole grid, so there is no collateral damage:
        # the counters are exact.
        result = run_campaign(
            spec,
            executor=executor,
            cache=tmp_path,
            chunk_size=spec.n_units,
            fault_plan=death_plan(0, spec.n_units),
            retry=FAST_RETRY,
        )
        assert result.pool_rebuilds == 1
        assert result.chunk_retries == 1
        assert result.values.tobytes() == reference.values.tobytes()

    def test_async_executor_concurrent_chunks_heal(self, spec, reference, tmp_path):
        executor = AsyncExecutor(processes=2)
        result = run_campaign(
            spec,
            executor=executor,
            cache=tmp_path,
            chunk_size=16,
            fault_plan=death_plan(16, 32),
            retry=FAST_RETRY,
        )
        # Concurrent siblings of the dying chunk may fail collaterally
        # (their futures ride the same broken pool), so the retry count is
        # a floor — but the identity-guarded heal rebuilds exactly once,
        # and the values are exactly right.
        assert result.pool_rebuilds == 1
        assert result.chunk_retries >= 1
        assert executor.pool_rebuilds == 1
        assert result.values.tobytes() == reference.values.tobytes()

    def test_no_cache_run_heals_a_dead_worker(
        self, spec, reference, tmp_path, monkeypatch
    ):
        """A pool run with no cache, shard, chunk size, fault plan or
        deadline still takes the chunk loop, so a worker that dies is
        healed and its chunk retried instead of surfacing a raw
        ``BrokenProcessPool``."""
        parent = os.getpid()
        marker = tmp_path / "died"
        evaluate = executors._evaluate_batch

        def die_once(batch):
            # Forked workers inherit this patch. The first one to claim
            # the marker exits; every later call evaluates normally.
            if os.getpid() != parent:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return evaluate(batch)

        monkeypatch.setattr(executors, "_evaluate_batch", die_once)
        result = run_campaign(
            spec, executor=AsyncExecutor(processes=2), retry=FAST_RETRY
        )
        assert marker.exists()
        assert result.pool_rebuilds == 1
        assert result.chunk_retries == 1
        assert result.values.tobytes() == reference.values.tobytes()

    def test_transient_worker_error_does_not_rebuild(self, spec, reference, tmp_path):
        executor = AsyncExecutor(processes=2)
        plan = FaultPlan(rules=(FaultRule(kind="chunk-error", site=chunk_site(0, 16)),))
        result = run_campaign(
            spec,
            executor=executor,
            cache=tmp_path,
            chunk_size=16,
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        # The exception came *out of* a live worker: the pool survives.
        assert result.pool_rebuilds == 0
        assert result.chunk_retries == 1
        assert result.values.tobytes() == reference.values.tobytes()

    def test_fault_free_pool_run_reports_zero_recoveries(
        self, spec, reference, tmp_path
    ):
        result = run_campaign(
            spec,
            executor=AsyncExecutor(processes=2),
            cache=tmp_path,
            chunk_size=16,
        )
        assert result.pool_rebuilds == 0
        assert result.chunk_retries == 0
        assert result.values.tobytes() == reference.values.tobytes()


class TestHealMechanics:
    def test_heal_is_identity_guarded(self):
        executor = AsyncExecutor(processes=1)
        with executor.reserve():
            broken = executor._reserved_pool()
            assert executor._heal(broken) is True
            assert executor.pool_rebuilds == 1
            # A second report of the same (now stale) pool is a no-op.
            assert executor._heal(broken) is False
            assert executor.pool_rebuilds == 1
            healed = executor._reserved_pool()
            assert healed is not broken
        assert executor._reserved_pool() is None

    def test_heal_ignores_unreserved_pools(self):
        executor = AsyncExecutor(processes=1)
        assert executor._heal(None) is False
        assert executor.pool_rebuilds == 0
