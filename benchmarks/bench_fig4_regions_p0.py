"""Bench `fig4a`: regenerate Fig. 4 top panel (rate regions at P = 0 dB).

Traces the DT / MABC / TDBC-inner / TDBC-outer / HBC boundaries at the
paper's low-SNR operating point, prints them, asserts the low-SNR claims
(MABC beats TDBC in area and sum rate) and times one boundary trace.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.core.capacity import achievable_region
from repro.core.protocols import Protocol
from repro.experiments.config import FIG4_P0
from repro.experiments.fig4 import run_fig4
from repro.experiments.runner import fig4_report


@pytest.fixture(scope="module")
def panel():
    return run_fig4(FIG4_P0)


def test_fig4a_full_report(panel):
    report = fig4_report(FIG4_P0, "fig4a", result=panel)
    emit(report.render())
    assert report.all_checks_pass(), report.checks


def test_fig4a_low_snr_ordering(panel):
    assert panel.traces["MABC"].area > panel.traces["TDBC inner"].area
    assert panel.traces["MABC"].max_sum_rate > \
        panel.traces["TDBC inner"].max_sum_rate


def test_fig4a_region_nesting(panel):
    assert panel.traces["HBC"].area >= panel.traces["MABC"].area - 1e-9
    assert panel.traces["TDBC outer"].area >= \
        panel.traces["TDBC inner"].area - 1e-9


def test_bench_fig4a_hbc_boundary(benchmark, paper_channel_low):
    """Time the HBC boundary trace (33 support-point LPs, lexicographic)."""
    region = achievable_region(Protocol.HBC, paper_channel_low)

    boundary = benchmark(region.boundary, 33)
    assert boundary.shape[1] == 2
