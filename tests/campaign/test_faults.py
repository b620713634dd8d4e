"""Deterministic fault injection and the engine's retry/deadline machinery.

The headline guarantee under test: with any fault plan armed, a campaign
either completes *bitwise-identical* to the fault-free run or fails with
a single typed error — never a silently wrong result.  Injection itself
is deterministic: the same plan fires the same faults at the same sites
on every replay, with no wall-clock randomness anywhere.
"""

import pickle

import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.engine import RetryPolicy, run_campaign
from repro.campaign.executors import get_executor
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.core.protocols import Protocol
from repro.exceptions import (
    CampaignTimeoutError,
    ChunkRetryExhaustedError,
    InvalidParameterError,
)
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    FaultToken,
    InjectedChunkError,
    chunk_site,
)

#: Zero backoff keeps the retry tests fast; the schedule itself is
#: covered by the RetryPolicy unit tests below.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


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
    return run_campaign(spec, executor="vectorized")


def one_shot_chunk_error(lo, hi, seed=0):
    """A plan that fails chunk [lo, hi) transiently on its first attempt."""
    return FaultPlan(
        rules=(FaultRule(kind="chunk-error", site=chunk_site(lo, hi)),),
        seed=seed,
    )


class TestFaultPlanDeterminism:
    def test_decide_is_a_pure_function(self):
        rule = FaultRule(kind="chunk-error", probability=0.5, times=None)
        first = FaultPlan(rules=(rule,), seed=42)
        second = FaultPlan(rules=(rule,), seed=42)
        sites = [chunk_site(lo, lo + 16) for lo in range(0, 1600, 16)]
        decisions = [first.decide("chunk-error", s, 0) for s in sites]
        assert decisions == [second.decide("chunk-error", s, 0) for s in sites]
        # A 0.5-probability rule over 100 sites fires on some and spares
        # others — the hash thins, it does not degenerate.
        fired = [d is not None for d in decisions]
        assert any(fired) and not all(fired)

    def test_seed_changes_the_firing_pattern(self):
        rule = FaultRule(kind="chunk-error", probability=0.5, times=None)
        sites = [chunk_site(lo, lo + 16) for lo in range(0, 1600, 16)]
        pattern = lambda seed: [  # noqa: E731
            FaultPlan(rules=(rule,), seed=seed).decide("chunk-error", s, 0) is not None
            for s in sites
        ]
        assert pattern(1) != pattern(2)

    def test_attempt_window(self):
        rule = FaultRule(kind="chunk-error", after=1, times=2)
        assert not rule.matches("chunk[0,16)", 0)
        assert rule.matches("chunk[0,16)", 1)
        assert rule.matches("chunk[0,16)", 2)
        assert not rule.matches("chunk[0,16)", 3)
        unbounded = FaultRule(kind="chunk-error", times=None)
        assert unbounded.matches("chunk[0,16)", 999)

    def test_site_filter_is_a_substring(self):
        rule = FaultRule(kind="chunk-error", site="chunk[16,32)")
        assert rule.matches(chunk_site(16, 32), 0)
        assert not rule.matches(chunk_site(0, 16), 0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="worker-death", site=chunk_site(0, 16), exit_code=7),
                FaultRule(kind="torn-write", mode="crash", times=None),
                FaultRule(kind="socket-delay", site="result", delay_seconds=0.5),
            ),
            seed=99,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_fault_token_pickles(self):
        token = FaultToken(one_shot_chunk_error(0, 16), (0, 16), 0)
        clone = pickle.loads(pickle.dumps(token))
        assert clone == token
        with pytest.raises(InjectedChunkError):
            clone.apply(in_worker=False)

    def test_rule_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="meteor-strike")
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="chunk-error", probability=1.5)
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="torn-write", mode="shred")
        with pytest.raises(InvalidParameterError):
            FaultRule(kind="chunk-error", times=0)

    def test_env_pickup_inline_and_file(self, tmp_path, monkeypatch):
        plan = one_shot_chunk_error(0, 16, seed=3)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert FaultPlan.from_env() == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert FaultPlan.from_env() is None


class TestChunkRetry:
    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_transient_fault_retries_to_bitwise_identity(
        self, spec, reference, tmp_path, executor
    ):
        plan = one_shot_chunk_error(16, 32)
        result = run_campaign(
            spec,
            executor=executor,
            cache=tmp_path,
            chunk_size=16,
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        assert result.chunk_retries == 1
        assert result.pool_rebuilds == 0
        assert result.values.tobytes() == reference.values.tobytes()

    def test_fault_plan_from_env_drives_the_run(
        self, spec, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, one_shot_chunk_error(0, 16).to_json())
        result = run_campaign(spec, cache=tmp_path, chunk_size=16, retry=FAST_RETRY)
        assert result.chunk_retries == 1
        assert result.values.tobytes() == reference.values.tobytes()

    def test_exhaustion_raises_one_typed_error(self, spec, tmp_path):
        # times=None: the chunk fails on every attempt.
        plan = FaultPlan(
            rules=(FaultRule(kind="chunk-error", site=chunk_site(16, 32), times=None),)
        )
        with pytest.raises(ChunkRetryExhaustedError) as excinfo:
            run_campaign(
                spec,
                cache=tmp_path,
                chunk_size=16,
                fault_plan=plan,
                retry=FAST_RETRY,
            )
        assert excinfo.value.chunk == (16, 32)
        assert excinfo.value.attempts == FAST_RETRY.max_attempts

    @pytest.mark.parametrize("executor", ["serial", "async"])
    def test_completed_chunks_survive_exhaustion(
        self, spec, reference, tmp_path, executor
    ):
        cache = CampaignCache(tmp_path)
        plan = FaultPlan(
            rules=(FaultRule(kind="chunk-error", site=chunk_site(32, 48), times=None),)
        )
        with pytest.raises(ChunkRetryExhaustedError):
            run_campaign(
                spec,
                executor=get_executor(executor, processes=2),
                cache=cache,
                chunk_size=16,
                fault_plan=plan,
                retry=FAST_RETRY,
            )
        # Every chunk but the poisoned one was checkpointed in the first
        # round; a clean rerun resumes from them and converges bitwise.
        result = run_campaign(spec, cache=cache, chunk_size=16)
        assert result.cells_from_cache == spec.n_units - 16
        assert result.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_worker_death_is_a_no_op_in_process(
        self, spec, reference, tmp_path, executor
    ):
        # In-process executors apply the fault token with in_worker=False:
        # killing the worker would kill the interpreter itself.
        plan = FaultPlan(rules=(FaultRule(kind="worker-death", times=None),))
        result = run_campaign(
            spec,
            executor=executor,
            cache=tmp_path,
            chunk_size=16,
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        assert result.chunk_retries == 0
        assert result.pool_rebuilds == 0
        assert result.values.tobytes() == reference.values.tobytes()

    def test_fatal_errors_are_not_retried(self, spec, tmp_path):
        class FatalExecutor:
            name = "fatal"

            def __init__(self):
                self.calls = 0

            def run(self, batches, progress=None):
                self.calls += 1
                raise ValueError("not transient")

        executor = FatalExecutor()
        with pytest.raises(ValueError, match="not transient"):
            run_campaign(
                spec,
                executor=executor,
                cache=tmp_path,
                chunk_size=16,
                retry=FAST_RETRY,
            )
        assert executor.calls == 1

    def test_retry_accepts_a_bare_attempt_count(self, spec, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(kind="chunk-error", site=chunk_site(0, 16), times=None),)
        )
        with pytest.raises(ChunkRetryExhaustedError) as excinfo:
            run_campaign(spec, cache=tmp_path, chunk_size=16, fault_plan=plan, retry=1)
        assert excinfo.value.attempts == 1

    def test_faultless_plan_changes_nothing(self, spec, reference, tmp_path):
        # An armed plan whose rules never match is a pure no-op.
        plan = FaultPlan(
            rules=(FaultRule(kind="chunk-error", site="chunk[9999,10000)"),)
        )
        result = run_campaign(spec, cache=tmp_path, chunk_size=16, fault_plan=plan)
        assert result.chunk_retries == 0
        assert result.values.tobytes() == reference.values.tobytes()


class TestRetryPolicy:
    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.35)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(10) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(backoff_base=-1.0)


class TestDeadline:
    def test_expired_deadline_aborts_at_a_chunk_boundary(self, spec, tmp_path):
        import time

        with pytest.raises(CampaignTimeoutError) as excinfo:
            run_campaign(
                spec,
                cache=tmp_path,
                chunk_size=16,
                deadline=time.monotonic() - 1.0,
            )
        assert excinfo.value.completed == 0
        assert excinfo.value.total == spec.n_units

    @pytest.mark.parametrize("executor", ["serial", "async"])
    def test_checkpointed_chunks_count_as_completed(self, spec, tmp_path, executor):
        import time

        cache = CampaignCache(tmp_path)
        full = run_campaign(spec, cache=cache, chunk_size=16)
        # Drop the full entry and one chunk: the rerun serves every other
        # checkpoint, then hits the expired deadline before the gap.
        from repro.campaign.engine import _cache_key

        key = _cache_key(spec)
        cache.path_for(key).unlink()
        cache.chunk_path_for(key, 32, 48).unlink()
        with pytest.raises(CampaignTimeoutError) as excinfo:
            run_campaign(
                spec,
                executor=get_executor(executor, processes=2),
                cache=cache,
                chunk_size=16,
                deadline=time.monotonic() - 1.0,
            )
        assert excinfo.value.completed == spec.n_units - 16
        # The full-entry hot path still serves even past the deadline:
        # reads are cheap, only fresh compute is cut.
        cache.store(key, full.values, spec.to_dict())
        served = run_campaign(
            spec, cache=cache, chunk_size=16, deadline=time.monotonic() - 1.0
        )
        assert served.from_cache
        assert served.values.tobytes() == full.values.tobytes()

    @pytest.mark.parametrize("executor", ["serial", "vectorized", "async"])
    def test_deadline_stops_every_executor(self, spec, reference, tmp_path, executor):
        import time

        deadline = time.monotonic() + 1.0

        def wait_out_deadline(done, total):
            # Called once the first chunk lands: let the deadline pass.
            while time.monotonic() < deadline:
                time.sleep(0.01)

        cache = CampaignCache(tmp_path)
        with pytest.raises(CampaignTimeoutError) as excinfo:
            run_campaign(
                spec,
                executor=get_executor(executor, processes=2),
                cache=cache,
                chunk_size=16,
                progress=wait_out_deadline,
                deadline=deadline,
            )
        completed = excinfo.value.completed
        assert 0 < completed < spec.n_units
        assert excinfo.value.total == spec.n_units
        resumed = run_campaign(
            spec,
            executor=get_executor(executor, processes=2),
            cache=cache,
            chunk_size=16,
        )
        assert resumed.cells_from_cache == completed
        assert resumed.values.tobytes() == reference.values.tobytes()
