"""Ablation `abl-traffic`: batched frame outcomes under the event layer.

A traffic simulation consumes link-layer outcomes one served round at a
time, which invites the naive implementation: run one
:class:`~repro.simulation.engine.ProtocolEngine` round per frame as the
scheduler asks for it. The production path instead parks a slot whose
pair has no realized outcome left and realizes outcomes in chunks
(:func:`~repro.traffic.outcomes.realize_chunks`): the pending chunks of
every pair of the simulation (and, in a campaign batch, of every offered
load and cell) run as one fused call of the link kernel's
:class:`~repro.simulation.engine.BatchedProtocolEngine` — same pre-drawn
payload block, same per-phase noise streams, so the event trace and
every reported metric are bitwise identical; only the wall clock moves.
This bench runs full queueing simulations (arrivals, FIFO buffers, ARQ,
scheduling) both ways, asserting the >= 3x speedup and exact equality of
every :class:`~repro.traffic.simulator.TrafficReport`, and writes the
trajectory to ``BENCH_traffic.json`` at the repo root (the artifact CI
uploads).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.campaign.spec import LinkSimSpec, TrafficSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.experiments.tables import render_table
from repro.traffic import simulate_traffic

SEED = 31
N_SLOTS = 256
POWER = 10.0
GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
PROTOCOLS = (Protocol.MABC, Protocol.TDBC)
MIN_SPEEDUP = 3.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_traffic.json"

#: Two asymmetrically loaded pairs on the arXiv:1002.0123 topology,
#: heavily enough loaded that most slots serve a round (the regime where
#: outcome realization dominates the wall clock).
LINK = LinkSimSpec(
    n_rounds=N_SLOTS,
    payload_bits=64,
    seed=SEED,
    metric="latency",
    traffic=TrafficSpec(
        rates=(0.6, 0.3),
        scheduler="longest-queue",
        buffer_frames=12,
        arq_limit=4,
        pair_offsets_db=((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0)),
    ),
)


def _run(protocol: Protocol, method: str):
    """One full queueing simulation with the given outcome realization."""
    return simulate_traffic(
        protocol,
        GAINS,
        POWER,
        link=LINK,
        rng=np.random.default_rng([SEED, 0]),
        method=method,
    )


@pytest.fixture(scope="module")
def method_comparison():
    """Best-of-2 timings and reports of both outcome realizations."""
    results = {}
    for protocol in PROTOCOLS:
        timings = {}
        reports = {}
        for method in ("per-frame", "batched"):
            best = np.inf
            for _ in range(2):
                start = time.perf_counter()
                reports[method] = _run(protocol, method)
                best = min(best, time.perf_counter() - start)
            timings[method] = best
        results[protocol] = (timings, reports)
    return results


def test_batched_speedup_and_exact_equality(method_comparison):
    """The acceptance gate: >= 3x faster, every report field identical."""
    rows = []
    trajectory = {}
    total_per_frame = 0.0
    total_batched = 0.0
    for protocol, (timings, reports) in method_comparison.items():
        assert reports["batched"] == reports["per-frame"], (
            f"{protocol}: batched traffic report differs from the "
            "per-frame reference loop"
        )
        speedup = timings["per-frame"] / timings["batched"]
        total_per_frame += timings["per-frame"]
        total_batched += timings["batched"]
        report = reports["batched"]
        p95 = report.latency_quantile(0.95)
        rows.append(
            [
                protocol.name,
                timings["per-frame"],
                timings["batched"],
                speedup,
                report.delivered,
                p95,
            ]
        )
        trajectory[protocol.name] = {
            "per_frame_s": timings["per-frame"],
            "batched_s": timings["batched"],
            "speedup": speedup,
            "delivered": report.delivered,
            "served_rounds": report.served_rounds,
            "latency_p95_slots": p95,
        }
    aggregate = total_per_frame / total_batched
    table = render_table(
        [
            "protocol",
            "per-frame [s]",
            "batched [s]",
            "speedup",
            "delivered",
            "p95 latency [slots]",
        ],
        rows,
        title=(
            f"abl-traffic: 2 pairs x {N_SLOTS} slots, ARQ + "
            f"longest-queue — aggregate speedup {aggregate:.1f}x"
        ),
    )
    emit(table)
    summary = {
        "bench": "abl-traffic",
        "n_slots": N_SLOTS,
        "n_pairs": LINK.traffic.n_pairs,
        "payload_bits": LINK.payload_bits,
        "scheduler": LINK.traffic.scheduler,
        "min_speedup_asserted": MIN_SPEEDUP,
        "aggregate_speedup": aggregate,
        "protocols": trajectory,
    }
    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")
    assert aggregate >= MIN_SPEEDUP, (
        f"batched outcome stream only {aggregate:.2f}x faster than the "
        f"per-frame loop ({total_batched:.3f}s vs {total_per_frame:.3f}s)"
    )


def test_bench_traffic_simulation(benchmark):
    """Time the batched production path on the MABC configuration."""
    report = benchmark(_run, Protocol.MABC, "batched")
    assert report.n_slots == N_SLOTS
