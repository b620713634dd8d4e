"""Integration: the link-level stack with QPSK modulation.

The production codec defaults to BPSK; QPSK halves the channel uses per
frame at 3 dB less energy per bit. These tests run the full protocol
engine with a QPSK codec to verify the modulation layer composes with
coding, SIC and network coding end to end.
"""

import numpy as np
import pytest

from repro.channels.awgn import ComplexAwgn
from repro.channels.gains import LinkGains
from repro.channels.halfduplex import HalfDuplexMedium
from repro.core.protocols import Protocol
from repro.simulation.bits import random_bits
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.engine import ProtocolEngine
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.modulation import Qpsk


@pytest.fixture
def qpsk_codec():
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8, modulation=Qpsk())


@pytest.fixture
def bpsk_codec():
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)


def make_engine(codec, noise_power=1e-6):
    medium = HalfDuplexMedium(
        gains=LinkGains.from_db(-3.0, 3.0, 6.0), noise=ComplexAwgn(noise_power)
    )
    return ProtocolEngine(medium=medium, codec=codec, power=10.0)


class TestQpskCodec:
    def test_halves_symbol_count(self, qpsk_codec, bpsk_codec):
        assert qpsk_codec.coded_bits == bpsk_codec.coded_bits
        assert qpsk_codec.n_symbols == bpsk_codec.n_symbols / 2

    def test_doubles_rate(self, qpsk_codec, bpsk_codec):
        assert qpsk_codec.rate == pytest.approx(2 * bpsk_codec.rate)

    def test_clean_roundtrip(self, qpsk_codec, rng):
        payload = random_bits(rng, 32)
        frame = qpsk_codec.decode(qpsk_codec.encode(payload), 1.0 + 0j, 1e-9)
        assert frame.crc_ok
        np.testing.assert_array_equal(frame.payload, payload)


class TestQpskProtocols:
    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    def test_clean_channel_round(self, protocol, qpsk_codec, rng):
        engine = make_engine(qpsk_codec)
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        result = engine.run_round(protocol, wa, wb, rng)
        assert result.success_a_to_b
        assert result.success_b_to_a

    def test_qpsk_goodput_doubles_bpsk(self, qpsk_codec, bpsk_codec, rng):
        qpsk_engine = make_engine(qpsk_codec)
        bpsk_engine = make_engine(bpsk_codec)
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        qpsk_result = qpsk_engine.run_mabc_round(wa, wb, rng)
        bpsk_result = bpsk_engine.run_mabc_round(wa, wb, rng)
        assert qpsk_result.success_a_to_b and bpsk_result.success_a_to_b
        assert qpsk_result.n_symbols == bpsk_result.n_symbols / 2
