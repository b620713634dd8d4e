"""Ablation `abl-netcode`: what does network coding actually buy?

The paper's Fig. 1 narrative: naive relaying needs four phases; network
coding merges the two relay transmissions (TDBC, 3 phases); joint MAC
transmission merges the terminal phases too (MABC, 2 phases). This bench
quantifies that progression in optimal sum rate across a power sweep,
analytically and operationally.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.channels.gains import LinkGains
from repro.core.capacity import compare_protocols, optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.experiments.tables import render_table

GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
POWERS_DB = (0.0, 5.0, 10.0, 15.0)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for power_db in POWERS_DB:
        channel = GaussianChannel(gains=GAINS, power=10 ** (power_db / 10))
        results[power_db] = compare_protocols(channel)
    return results


def test_progression_table(sweep):
    rows = []
    for power_db, comparison in sweep.items():
        rates = comparison.as_row()
        rows.append([
            power_db, rates["NAIVE4"], rates["TDBC"], rates["MABC"],
            rates["HBC"], rates["MABC"] / rates["NAIVE4"],
        ])
    emit(render_table(
        ["P [dB]", "naive 4-phase", "TDBC", "MABC", "HBC",
         "MABC/naive gain"],
        rows,
        title="abl-netcode: the Fig. 1 progression in optimal sum rate"))


def test_every_coded_protocol_beats_naive(sweep):
    for comparison in sweep.values():
        rates = comparison.as_row()
        for name in ("MABC", "TDBC", "HBC"):
            assert rates[name] > rates["NAIVE4"] + 1e-6


def test_gain_exceeds_half_log_factor(sweep):
    """MABC halves the phase count vs naive relaying on these channels.

    The improvement is not exactly 2x (the MAC sum constraint bites), but
    must exceed ~1.3x across the sweep.
    """
    for comparison in sweep.values():
        rates = comparison.as_row()
        assert rates["MABC"] / rates["NAIVE4"] > 1.3


def test_bench_naive4_optimization(benchmark):
    channel = GaussianChannel(gains=GAINS, power=10.0)
    point = benchmark(optimal_sum_rate, Protocol.NAIVE4, channel)
    assert point.sum_rate > 0
