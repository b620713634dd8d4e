"""Memory regression guard for the fused batched engine.

``BatchedProtocolEngine.run_*_rounds`` drops each phase's ``PhaseRows``
(complex received rows) as soon as its listeners are decoded, so a fused
round batch holds one phase's outputs at a time, and the medium writes
those outputs over the phase's noise draws. This guard runs one fused
TDBC wave and one fused HBC wave, 12 cells x 24 rounds each with the
production codec, and bounds the ``tracemalloc`` peak per fused row.

The bounds are the peaks measured with NumPy 2.4 on CPython 3.11
(TDBC 26,200 B/row, HBC 35,300 B/row) plus 10 % headroom. Holding the
first phase's outputs until the round returns measures 35,800 B/row
(TDBC) and 40,800 B/row (HBC), past both bounds. The numbers are
allocation sizes, not timings, so they repeat exactly for a given NumPy
and Python.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.protocols import Protocol
from repro.simulation.engine import (
    BatchedProtocolEngine,
    spawn_cell_phase_streams,
    spawn_phase_streams,
)
from repro.simulation.linkcodec import default_codec

N_CELLS = 12
ROUNDS = 24

#: Measured traced peak per fused row (bytes) times 1.10.
PEAK_BYTES_PER_ROW = {
    Protocol.TDBC: 26_200 * 1.10,
    Protocol.HBC: 35_300 * 1.10,
}


def fused_wave(protocol):
    """One 12-cell x 24-round fused wave; returns (batch, peak bytes)."""
    codec = default_codec()
    rng = np.random.default_rng(7)
    gab = rng.uniform(0.3, 1.5, N_CELLS)
    gar = rng.uniform(0.5, 2.0, N_CELLS)
    gbr = rng.uniform(0.5, 2.0, N_CELLS)
    power = np.linspace(1.0, 10.0, N_CELLS)
    engine = BatchedProtocolEngine.for_cells(codec, gab, gar, gbr, power, ROUNDS)
    streams = spawn_cell_phase_streams(
        protocol,
        [
            spawn_phase_streams(protocol, np.random.default_rng([3, cell]))
            for cell in range(N_CELLS)
        ],
        ROUNDS,
    )
    payload = rng.integers(
        0, 2, size=(2, N_CELLS * ROUNDS, codec.payload_bits), dtype=np.uint8
    )
    tracemalloc.start()
    try:
        batch = engine.run_rounds(
            protocol, payload[0], payload[1], phase_streams=streams
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return batch, peak


@pytest.mark.parametrize("protocol", [Protocol.TDBC, Protocol.HBC], ids=str)
def test_fused_wave_peak_per_row_is_bounded(protocol):
    fused_wave(protocol)  # fill the codec's lazily built trellis tables
    batch, peak = fused_wave(protocol)
    assert len(batch) == N_CELLS * ROUNDS
    per_row = peak / (N_CELLS * ROUNDS)
    assert per_row <= PEAK_BYTES_PER_ROW[protocol], (
        f"{protocol}: traced peak {per_row:.0f} B per fused row exceeds "
        f"{PEAK_BYTES_PER_ROW[protocol]:.0f}; is a phase's PhaseRows held "
        "past its decode?"
    )
