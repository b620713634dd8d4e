"""Batched-vs-reference equivalence: the proof of the link kernel.

The batched link-level engine must reproduce the per-round reference
implementation *exactly* — every field of every report, every row of
every cell — across all protocols, both shipped convolutional codes,
both modulations and any batch size. These tests are the executable
form of that contract.
"""

import numpy as np
import pytest

from repro.channels.gains import LinkGains
from repro.channels.halfduplex import HalfDuplexMedium
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation.convolutional import NASA_CODE, TEST_CODE
from repro.simulation.crc import CRC8, CRC16_CCITT
from repro.simulation.engine import (
    PROTOCOL_PHASE_COUNTS,
    BatchedProtocolEngine,
    ProtocolEngine,
    spawn_cell_phase_streams,
    spawn_phase_streams,
)
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.modulation import Qpsk
from repro.simulation.montecarlo import simulate_protocol

FAST_CODEC = LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)
NASA_CODEC = LinkCodec(payload_bits=32, code=NASA_CODE, crc=CRC16_CCITT)
QPSK_CODEC = LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8, modulation=Qpsk())
GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)

#: Moderate SNR so the batch contains successes *and* failures — the
#: regime where an arbitration or accounting mismatch would actually show.
POWER = 1.0


def _report_pair(
    protocol, codec, *, n_rounds=21, seed=123, power=POWER, batch_size=None
):
    reference = simulate_protocol(
        protocol,
        GAINS,
        power,
        n_rounds,
        np.random.default_rng(seed),
        codec=codec,
        method="reference",
    )
    batched = simulate_protocol(
        protocol,
        GAINS,
        power,
        n_rounds,
        np.random.default_rng(seed),
        codec=codec,
        batch_size=batch_size,
    )
    return reference, batched


class TestReportEquality:
    """simulate_protocol: batched == per-round reference, field for field."""

    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    @pytest.mark.parametrize(
        "codec", [FAST_CODEC, NASA_CODEC], ids=["test-code", "nasa-code"]
    )
    def test_batched_equals_reference(self, protocol, codec):
        reference, batched = _report_pair(protocol, codec)
        assert batched == reference

    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    def test_qpsk_batched_equals_reference(self, protocol):
        reference, batched = _report_pair(protocol, QPSK_CODEC)
        assert batched == reference

    def test_mixed_outcomes_are_exercised(self):
        """The chosen SNR produces both successes and failures (regression
        guard: an all-success batch would vacuously pass arbitration)."""
        reference, _ = _report_pair(Protocol.TDBC, FAST_CODEC, n_rounds=40)
        errors = (reference.a_to_b.frame_errors + reference.b_to_a.frame_errors)
        assert 0 < errors < 80


class TestBatchSizeInvariance:
    """Results are a pure function of the rng state — never of batching."""

    @pytest.mark.parametrize(
        "batch_size", [1, 7, 64], ids=["one", "prime", "over-campaign"]
    )
    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    def test_odd_batch_sizes(self, protocol, batch_size):
        reference, batched = _report_pair(
            protocol, FAST_CODEC, n_rounds=23, batch_size=batch_size
        )
        assert batched == reference

    def test_invalid_batch_size_rejected(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            simulate_protocol(
                Protocol.DT, paper_gains, 1.0, 2, rng, codec=FAST_CODEC, batch_size=0
            )

    def test_invalid_method_rejected(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            simulate_protocol(
                Protocol.DT, paper_gains, 1.0, 2, rng, codec=FAST_CODEC, method="turbo"
            )


#: Two cells of distinct gains and powers for the engine-level tests, so
#: every per-row gain and amplitude column actually varies across rows;
#: both sit where the rows mix successes and failures.
ENGINE_CELLS = (
    (GAINS, POWER),
    (LinkGains.from_db(-3.0, 4.0, 1.0), 10**-0.2),
)


def _cell_streams(protocol, cell):
    """Per-phase noise streams of one cell (fresh generators each call)."""
    return spawn_phase_streams(protocol, np.random.default_rng([7, cell]))


def _engine(cells, n_rounds):
    return BatchedProtocolEngine.for_cells(
        FAST_CODEC,
        [gains.gab for gains, _ in cells],
        [gains.gar for gains, _ in cells],
        [gains.gbr for gains, _ in cells],
        [power for _, power in cells],
        n_rounds,
    )


class TestEngineRounds:
    """Engine-level equivalence over explicitly shared phase streams."""

    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    def test_round_batch_matches_per_round_results(self, protocol):
        n_rounds = 9
        payloads = [
            np.random.default_rng([11, cell]).integers(
                0, 2, size=(n_rounds, 2, 32), dtype=np.uint8
            )
            for cell in range(len(ENGINE_CELLS))
        ]
        rows = np.concatenate(payloads)
        streams = spawn_cell_phase_streams(
            protocol,
            [_cell_streams(protocol, cell) for cell in range(len(ENGINE_CELLS))],
            n_rounds,
        )
        batch = _engine(ENGINE_CELLS, n_rounds).run_rounds(
            protocol, rows[:, 0], rows[:, 1], phase_streams=streams
        )
        assert len(batch) == len(ENGINE_CELLS) * n_rounds
        for cell, (gains, power) in enumerate(ENGINE_CELLS):
            reference = ProtocolEngine(
                medium=HalfDuplexMedium(gains=gains), codec=FAST_CODEC, power=power
            )
            cell_streams = _cell_streams(protocol, cell)
            for index in range(n_rounds):
                result = reference.run_round(
                    protocol,
                    payloads[cell][index, 0],
                    payloads[cell][index, 1],
                    phase_streams=cell_streams,
                )
                assert batch.round_result(cell * n_rounds + index) == result

    def test_phase_stream_count_validated(self):
        engine = _engine(ENGINE_CELLS[:1], 3)
        payloads = np.zeros((3, 32), dtype=np.uint8)
        streams = spawn_cell_phase_streams(
            Protocol.DT, [_cell_streams(Protocol.DT, 0)], 3
        )
        with pytest.raises(InvalidParameterError):
            engine.run_rounds(Protocol.TDBC, payloads, payloads, phase_streams=streams)

    def test_unfused_streams_rejected(self):
        engine = _engine(ENGINE_CELLS[:1], 3)
        payloads = np.zeros((3, 32), dtype=np.uint8)
        with pytest.raises(InvalidParameterError):
            engine.run_rounds(
                Protocol.DT,
                payloads,
                payloads,
                phase_streams=_cell_streams(Protocol.DT, 0),
            )

    def test_mismatched_round_counts_rejected(self):
        engine = _engine(ENGINE_CELLS[:1], 3)
        streams = spawn_cell_phase_streams(
            Protocol.DT, [_cell_streams(Protocol.DT, 0)], 3
        )
        with pytest.raises(InvalidParameterError):
            engine.run_rounds(
                Protocol.DT,
                np.zeros((3, 32), dtype=np.uint8),
                np.zeros((4, 32), dtype=np.uint8),
                phase_streams=streams,
            )

    def test_phase_counts_cover_all_protocols(self):
        assert set(PROTOCOL_PHASE_COUNTS) == set(Protocol)
