"""Ablation `abl-fused-cells`: the (cells × rounds) fused campaign kernel.

Operational campaigns can evaluate one grid cell at a time — one
:func:`~repro.simulation.montecarlo.simulate_protocol` call per cell,
each a one-cell batch of the
:class:`~repro.simulation.engine.BatchedProtocolEngine`, so the trellis
recursion, CRC sweep and LLR arithmetic re-run per cell. This bench
measures the cells-fused path (one decode pipeline pass serving every
cell of a 36-cell SNR × geometry grid) against that one-cell-at-a-time
path in the many-cells × short-waves regime that fading-FER campaigns
with adaptive budgets live in, asserting both the >= 2.5x speedup and
exact equality of every
:class:`~repro.simulation.montecarlo.SimulationReport` field per cell,
and writes the machine-readable trajectory to ``BENCH_cells.json`` at
the repo root (the artifact CI uploads).

Most frames in this grid are clean, and the Viterbi decoder returns a
clean frame through its certified codeword shortcut without running the
add-compare-select. Fusion therefore saves the per-call overhead of the
remaining rows only, and the ratio is 2.6-2.7x on a 2-core VM; the floor
sits just below it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.channels.pathloss import linear_relay_gains
from repro.core.protocols import Protocol
from repro.experiments.tables import render_table
from repro.simulation.linkcodec import default_codec
from repro.simulation.montecarlo import simulate_protocol, simulate_protocol_cells

CODEC = default_codec(128)  # the production pipeline: CRC-16 + NASA K=7
N_ROUNDS = 8  # a first adaptive wave: the regime fusion exists for
SEED = 29
PROTOCOLS = (Protocol.MABC, Protocol.TDBC)
MIN_SPEEDUP = 2.5
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_cells.json"

#: The grid: 6 relay placements x 6 transmit powers = 36 cells per
#: protocol, spanning the codec's waterfall so the fused kernel sees
#: both error-free and error-dominated cells.
GAINS = tuple(
    linear_relay_gains(f, exponent=3.0) for f in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
)
POWERS = tuple(10 ** (p / 10.0) for p in (6.0, 7.2, 8.4, 9.6, 10.8, 12.0))
CELLS = tuple((g, p) for g in GAINS for p in POWERS)


def _cell_rngs():
    """Fresh per-cell generators, seeded exactly like campaign cells."""
    return [np.random.default_rng([SEED, i]) for i in range(len(CELLS))]


def _run_per_cell(protocol: Protocol):
    """One-cell-at-a-time: one simulate_protocol campaign per cell."""
    return [
        simulate_protocol(protocol, gains, power, N_ROUNDS, rng, codec=CODEC)
        for (gains, power), rng in zip(CELLS, _cell_rngs())
    ]


def _run_fused(protocol: Protocol):
    """The fused path: every cell through one cells x rounds kernel."""
    return simulate_protocol_cells(
        protocol,
        [gains for gains, _ in CELLS],
        [power for _, power in CELLS],
        N_ROUNDS,
        _cell_rngs(),
        codec=CODEC,
    )


@pytest.fixture(scope="module")
def path_comparison():
    """Best-of-2 timings and per-cell reports of both execution paths."""
    results = {}
    for protocol in PROTOCOLS:
        timings = {}
        reports = {}
        for label, runner in (("per-cell", _run_per_cell), ("fused", _run_fused)):
            best = np.inf
            for _ in range(2):
                start = time.perf_counter()
                reports[label] = runner(protocol)
                best = min(best, time.perf_counter() - start)
            timings[label] = best
        results[protocol] = (timings, reports)
    return results


def test_fused_speedup_and_exact_equality(path_comparison):
    """The acceptance gate: >= 2.5x faster, every report field identical."""
    rows = []
    trajectory = {}
    total_per_cell = 0.0
    total_fused = 0.0
    for protocol, (timings, reports) in path_comparison.items():
        assert reports["fused"] == reports["per-cell"], (
            f"{protocol}: fused reports differ from the one-cell-at-a-time "
            "path, cell for cell"
        )
        speedup = timings["per-cell"] / timings["fused"]
        total_per_cell += timings["per-cell"]
        total_fused += timings["fused"]
        mean_goodput = float(
            np.mean([report.sum_goodput for report in reports["fused"]])
        )
        rows.append(
            [
                protocol.name,
                timings["per-cell"],
                timings["fused"],
                speedup,
                mean_goodput,
            ]
        )
        trajectory[protocol.name] = {
            "per_cell_s": timings["per-cell"],
            "fused_s": timings["fused"],
            "speedup": speedup,
            "mean_goodput": mean_goodput,
        }
    aggregate = total_per_cell / total_fused
    table = render_table(
        ["protocol", "per-cell [s]", "fused [s]", "speedup", "mean goodput [b/sym]"],
        rows,
        title=(
            f"abl-fused-cells: {len(CELLS)} cells x {N_ROUNDS} rounds, "
            f"production codec — aggregate speedup {aggregate:.1f}x"
        ),
    )
    emit(table)
    summary = {
        "bench": "abl-fused-cells",
        "n_cells": len(CELLS),
        "n_rounds": N_ROUNDS,
        "payload_bits": CODEC.payload_bits,
        "code": "nasa",
        "min_speedup_asserted": MIN_SPEEDUP,
        "aggregate_speedup": aggregate,
        "protocols": trajectory,
    }
    BENCH_JSON.write_text(json.dumps(summary, indent=2) + "\n")
    assert aggregate >= MIN_SPEEDUP, (
        f"fused kernel only {aggregate:.2f}x faster than one-cell-at-a-time "
        f"evaluation ({total_fused:.3f}s vs {total_per_cell:.3f}s)"
    )


def test_fused_matches_campaign_seeding(path_comparison):
    """Fused cell values equal the campaign adapter's, seed for seed."""
    from repro.campaign.spec import LinkSimSpec
    from repro.simulation.montecarlo import fused_link_values

    link = LinkSimSpec(n_rounds=N_ROUNDS, payload_bits=128, seed=SEED)
    values = fused_link_values(
        Protocol.MABC,
        np.array([g.gab for g, _ in CELLS]),
        np.array([g.gar for g, _ in CELLS]),
        np.array([g.gbr for g, _ in CELLS]),
        np.array([p for _, p in CELLS]),
        link=link,
        indices=np.arange(len(CELLS)),
    )
    _, reports = path_comparison[Protocol.MABC]
    expected = np.array([r.sum_goodput for r in reports["per-cell"]])
    assert values.tobytes() == expected.tobytes()


def test_bench_fused_campaign(benchmark):
    """Time the fused fast path on the MABC cell grid."""
    reports = benchmark(_run_fused, Protocol.MABC)
    assert len(reports) == len(CELLS)
