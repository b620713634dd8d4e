"""Ablation `abl-batched-link`: the frames-axis-batched simulation kernel.

The operational check of the paper's claims — link-level FER/goodput of
the concrete DF system — historically ran one Python round at a time.
This bench measures the batched pipeline (one-cell batches of the
:class:`~repro.simulation.engine.BatchedProtocolEngine`: vectorized
GF(2) encoding, table-driven CRC, batched Viterbi ACS, one noise draw
per phase) against the per-round reference loop, asserting both the
>= 5x speedup and exact equality of every :class:`SimulationReport`
field, and writes the machine-readable trajectory to ``BENCH_link.json``
at the repo root (the artifact CI uploads).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.experiments.tables import render_table
from repro.simulation.linkcodec import default_codec
from repro.simulation.montecarlo import simulate_protocol

GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
POWER = 10**1.2  # 12 dB: the codec's comfortable operating point
CODEC = default_codec(128)  # the production pipeline: CRC-16 + NASA K=7
N_ROUNDS = 120
PROTOCOLS = (Protocol.DT, Protocol.MABC, Protocol.TDBC, Protocol.HBC)
MIN_SPEEDUP = 5.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_link.json"


def _run(protocol: Protocol, method: str):
    """One full campaign of the protocol; identical seeds per method."""
    return simulate_protocol(
        protocol,
        GAINS,
        POWER,
        N_ROUNDS,
        np.random.default_rng(41),
        codec=CODEC,
        method=method,
    )


@pytest.fixture(scope="module")
def method_comparison():
    """Best-of-2 timings and reports of both execution methods."""
    results = {}
    for protocol in PROTOCOLS:
        timings = {}
        reports = {}
        for method in ("reference", "batched"):
            best = np.inf
            for _ in range(2):
                start = time.perf_counter()
                reports[method] = _run(protocol, method)
                best = min(best, time.perf_counter() - start)
            timings[method] = best
        results[protocol] = (timings, reports)
    return results


def test_batched_speedup_and_exact_equality(method_comparison):
    """The acceptance gate: >= 5x faster, every report field identical."""
    rows = []
    trajectory = {}
    total_reference = 0.0
    total_batched = 0.0
    for protocol, (timings, reports) in method_comparison.items():
        assert reports["batched"] == reports["reference"], (
            f"{protocol}: batched report differs from the per-round "
            "reference loop, field for field"
        )
        speedup = timings["reference"] / timings["batched"]
        total_reference += timings["reference"]
        total_batched += timings["batched"]
        rows.append(
            [
                protocol.name,
                timings["reference"],
                timings["batched"],
                speedup,
                reports["batched"].sum_goodput,
            ]
        )
        trajectory[protocol.name] = {
            "reference_s": timings["reference"],
            "batched_s": timings["batched"],
            "speedup": speedup,
            "sum_goodput": reports["batched"].sum_goodput,
        }
    aggregate = total_reference / total_batched
    table = render_table(
        ["protocol", "per-round [s]", "batched [s]", "speedup", "goodput [b/sym]"],
        rows,
        title=(
            f"abl-batched-link: {N_ROUNDS} rounds, production codec, "
            f"P=12 dB — aggregate speedup {aggregate:.1f}x"
        ),
    )
    emit(table)
    summary = {
        "bench": "abl-batched-link",
        "n_rounds": N_ROUNDS,
        "payload_bits": CODEC.payload_bits,
        "code": "nasa",
        "min_speedup_asserted": MIN_SPEEDUP,
        "aggregate_speedup": aggregate,
        "protocols": trajectory,
    }
    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")
    assert aggregate >= MIN_SPEEDUP, (
        f"batched kernel only {aggregate:.2f}x faster than the per-round "
        f"reference ({total_batched:.3f}s vs {total_reference:.3f}s)"
    )


def test_goodput_still_below_bounds(method_comparison):
    """Batching must not change physics: goodput <= the analytic bound."""
    from repro.core.capacity import optimal_sum_rate
    from repro.core.gaussian import GaussianChannel

    for protocol, (_, reports) in method_comparison.items():
        bound = optimal_sum_rate(
            protocol, GaussianChannel(gains=GAINS, power=POWER)
        ).sum_rate
        assert reports["batched"].sum_goodput <= bound + 1e-9


def test_bench_batched_campaign(benchmark):
    """Time the batched fast path on one MABC campaign."""
    report = benchmark(_run, Protocol.MABC, "batched")
    assert report.n_rounds == N_ROUNDS


def test_bench_operational_scenario(benchmark):
    """Time the registered operational scenario through the facade."""
    from repro.api import evaluate

    result = benchmark(evaluate, "operational-goodput", cache=False)
    assert result.values.shape == (4, 1, 1, 1)
