"""Chaos smoke: the fault-tolerance guarantee, measured and reported.

Each scenario arms one deterministic fault class from :mod:`repro.faults`
against a real campaign and asserts the headline guarantee of
``docs/robustness.md``: the run either completes **bitwise-identical**
to its fault-free reference or fails with a **single typed error** — no
torn caches, no silently wrong numbers, no hangs.  The per-scenario
outcomes and recovery counters are written to
``.benchmarks/CHAOS_report.json`` under the repo root (git-ignored; the
artifact the CI ``chaos-smoke`` job uploads).

Scenarios:

``worker-kill``
    A pool worker dies (``os._exit``) mid-chunk; the executor rebuilds
    the pool once and the engine re-dispatches exactly the chunks that
    failed with it (the killed one plus any in-flight siblings).
``torn-write``
    Every chunk entry the store publishes is immediately truncated;
    digest verification refuses them all and the in-memory result never
    depends on the store.
``socket-drop``
    The daemon severs the result frame mid-stream; the client
    reconnects and is served the identical grid from the store.
``retry-exhaustion``
    A permanently failing chunk demonstrates the *other* arm of the
    guarantee: one typed :class:`ChunkRetryExhaustedError`, with every
    completed chunk checkpointed for the next attempt.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import evaluate
from repro.campaign.cache import CampaignCache
from repro.campaign.engine import RetryPolicy, _cache_key, run_campaign
from repro.campaign.executors import AsyncExecutor
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import ChunkRetryExhaustedError
from repro.faults import FaultPlan, FaultRule, chunk_site
from repro.serve import CampaignServer, ServeClient, ServeConfig, ServeError

SEED = 11
GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
CHAOS_JSON = (
    Path(__file__).resolve().parent.parent / ".benchmarks" / "CHAOS_report.json"
)

#: Zero backoff: the report measures recovery mechanics, not sleeps.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC),
        powers_db=(0.0, 10.0),
        gains=(GAINS,),
        fading=FadingSpec(n_draws=12, seed=SEED),
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.fixture(scope="module")
def reference():
    """The fault-free grid every recovered run must reproduce exactly."""
    return run_campaign(_spec(), executor="vectorized")


@pytest.fixture(scope="module")
def report():
    """Mutable per-scenario records; flushed to CHAOS_report.json."""
    records: dict[str, dict] = {}
    yield records
    CHAOS_JSON.parent.mkdir(exist_ok=True)
    CHAOS_JSON.write_text(
        json.dumps(
            {
                "bench": "chaos-smoke",
                "guarantee": "bitwise-identical or one typed error",
                "grid_units": _spec().n_units,
                "scenarios": records,
            },
            indent=2,
        )
        + "\n"
    )


def test_worker_kill_heals_and_converges(reference, report, tmp_path):
    plan = FaultPlan(
        rules=(FaultRule(kind="worker-death", site=chunk_site(16, 32)),)
    )
    executor = AsyncExecutor(processes=2)
    result, elapsed = _timed(
        lambda: run_campaign(
            _spec(),
            executor=executor,
            cache=tmp_path,
            chunk_size=16,
            fault_plan=plan,
            retry=FAST_RETRY,
        )
    )
    identical = result.values.tobytes() == reference.values.tobytes()
    report["worker-kill"] = {
        "outcome": "recovered",
        "bitwise_identical": identical,
        "pool_rebuilds": result.pool_rebuilds,
        "chunk_retries": result.chunk_retries,
        "elapsed_s": elapsed,
    }
    assert identical
    assert result.pool_rebuilds == 1
    # All chunks are in flight together, so siblings of the dying chunk
    # may fail on the same broken pool: at least the killed chunk and at
    # most every chunk is retried, while the identity-guarded heal
    # rebuilds exactly once.
    n_chunks = -(-_spec().n_units // 16)
    assert 1 <= result.chunk_retries <= n_chunks


def test_torn_writes_never_reach_the_result(reference, report, tmp_path):
    # Truncate *every* chunk entry either run publishes, forever.
    plan = FaultPlan(
        rules=(FaultRule(kind="torn-write", site="units-", times=None),)
    )
    cache = CampaignCache(tmp_path)
    result, elapsed = _timed(
        lambda: run_campaign(
            _spec(), executor="serial", cache=cache, chunk_size=16, fault_plan=plan
        )
    )
    identical = result.values.tobytes() == reference.values.tobytes()
    # The store self-repairs once the chaos stops.
    rerun = run_campaign(_spec(), cache=cache, chunk_size=16)
    rerun_identical = rerun.values.tobytes() == reference.values.tobytes()
    report["torn-write"] = {
        "outcome": "recovered",
        "bitwise_identical": identical,
        "clean_rerun_identical": rerun_identical,
        "elapsed_s": elapsed,
    }
    assert identical
    assert rerun_identical


def test_socket_drop_is_retried_to_the_same_bytes(reference, report, tmp_path):
    del reference  # the serve scenario has its own local reference
    plan = FaultPlan(rules=(FaultRule(kind="socket-drop", site="result"),))
    config = ServeConfig(
        socket_path=str(tmp_path / "chaos.sock"),
        cache=str(tmp_path / "serve-cache"),
        processes=2,
    )
    server = CampaignServer(config, fault_plan=plan)
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    client = ServeClient(config.socket_path, timeout=120, retries=2)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.ping()
            break
        except ServeError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    try:
        served, elapsed = _timed(lambda: client.evaluate("fig4-operating-points"))
        local = evaluate("fig4-operating-points")
        identical = served.values.tobytes() == local.values.tobytes()
        faults = client.stats()["faults_injected"]
        report["socket-drop"] = {
            "outcome": "recovered",
            "bitwise_identical": identical,
            "served_from": served.served_from,
            "faults_injected": faults,
            "elapsed_s": elapsed,
        }
        assert identical
        assert faults == {"socket-drop": 1}
    finally:
        try:
            client.shutdown()
        except ServeError:
            pass
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_exhausted_retries_fail_with_one_typed_error(report, tmp_path):
    # A chunk that fails on every attempt: the guarantee's other arm.
    plan = FaultPlan(
        rules=(
            FaultRule(kind="chunk-error", site=chunk_site(16, 32), times=None),
        )
    )
    with pytest.raises(ChunkRetryExhaustedError) as excinfo:
        run_campaign(
            _spec(),
            executor="serial",
            cache=tmp_path,
            chunk_size=16,
            fault_plan=plan,
            retry=FAST_RETRY,
        )
    # Completed chunks were checkpointed before the failure surfaced.
    cache = CampaignCache(tmp_path)
    checkpointed = sum(
        stop - start for start, stop, _ in cache.iter_chunks(_cache_key(_spec()))
    )
    report["retry-exhaustion"] = {
        "outcome": "typed-error",
        "error": type(excinfo.value).__name__,
        "failed_chunk": list(excinfo.value.chunk),
        "attempts": excinfo.value.attempts,
        "cells_checkpointed": checkpointed,
    }
    assert excinfo.value.chunk == (16, 32)
    assert excinfo.value.attempts == FAST_RETRY.max_attempts
    assert checkpointed >= 16
