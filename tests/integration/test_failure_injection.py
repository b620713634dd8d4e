"""Integration: failure injection — misbehaving relays and dead links.

The decode-and-forward protocols trust the relay's re-encoding. These
tests inject faults the analysis does not model (a corrupted relay
broadcast, a relay forwarding garbage) and verify the terminal-side
defenses behave as designed: CRC arbitration never accepts a wrong
payload silently, and TDBC's direct path takes over when it can.
"""

import numpy as np
import pytest

from repro.channels.awgn import ComplexAwgn
from repro.channels.gains import LinkGains
from repro.channels.halfduplex import HalfDuplexMedium
from repro.simulation.bits import random_bits, xor_bits
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.terminals import DecodePath, arbitrate_paths


@pytest.fixture
def codec():
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)


@pytest.fixture
def quiet_medium():
    return HalfDuplexMedium(
        gains=LinkGains.from_db(0.0, 3.0, 6.0), noise=ComplexAwgn(1e-9)
    )


def transmit(medium, node, symbols, rng):
    """One node transmits one frame; returns a listener -> received map."""
    listeners = tuple(n for n in ("a", "b", "r") if n != node)
    rows = medium.run_phase_rows({node: symbols[None, :]}, listeners, rng)
    return {listener: rows.signal_at(listener)[0] for listener in listeners}


def run_tdbc_with_corrupt_relay(codec, medium, rng, *, corrupt_bits):
    """A TDBC exchange where the relay flips `corrupt_bits` of its frame."""
    amp = 3.0
    wa, wb = random_bits(rng, 32), random_bits(rng, 32)
    frame_a, frame_b = codec.crc.append(wa), codec.crc.append(wb)

    out1 = transmit(medium, "a", amp * codec.encode_frame_bits(frame_a), rng)
    a_at_b_direct = codec.decode(
        out1["b"], medium.complex_gains[frozenset(("a", "b"))], 1e-9, amplitude=amp
    )
    a_at_r = codec.decode(
        out1["r"], medium.complex_gains[frozenset(("a", "r"))], 1e-9, amplitude=amp
    )

    out2 = transmit(medium, "b", amp * codec.encode_frame_bits(frame_b), rng)
    b_at_r = codec.decode(
        out2["r"], medium.complex_gains[frozenset(("b", "r"))], 1e-9, amplitude=amp
    )

    # The relay builds the XOR frame, then a fault flips bits in it.
    relay_frame = xor_bits(a_at_r.frame_bits, b_at_r.frame_bits).copy()
    for position in range(corrupt_bits):
        relay_frame[position] ^= 1
    out3 = transmit(medium, "r", amp * codec.encode_frame_bits(relay_frame), rng)
    relay_at_b = codec.decode(
        out3["b"], medium.complex_gains[frozenset(("b", "r"))], 1e-9, amplitude=amp
    )
    estimate = arbitrate_paths(
        codec,
        relay_frame=relay_at_b,
        own_frame_bits=frame_b,
        direct_frame=a_at_b_direct,
    )
    return wa, estimate


class TestCorruptRelay:
    def test_clean_relay_uses_relay_path(self, codec, quiet_medium, rng):
        wa, estimate = run_tdbc_with_corrupt_relay(
            codec, quiet_medium, rng, corrupt_bits=0
        )
        assert estimate.path is DecodePath.RELAY
        np.testing.assert_array_equal(estimate.payload, wa)

    def test_corrupt_relay_falls_back_to_direct(self, codec, quiet_medium, rng):
        wa, estimate = run_tdbc_with_corrupt_relay(
            codec, quiet_medium, rng, corrupt_bits=3
        )
        assert estimate.path is DecodePath.DIRECT
        assert estimate.crc_ok
        np.testing.assert_array_equal(estimate.payload, wa)

    def test_corruption_never_accepted_silently(self, codec, quiet_medium):
        """Across many corruption patterns, a wrong payload is never
        delivered with crc_ok=True."""
        rng = np.random.default_rng(77)
        for corrupt_bits in (1, 2, 5, 8):
            wa, estimate = run_tdbc_with_corrupt_relay(
                codec, quiet_medium, rng, corrupt_bits=corrupt_bits
            )
            if estimate.crc_ok:
                np.testing.assert_array_equal(estimate.payload, wa)


class TestMabcNoFallback:
    def test_corrupt_relay_flagged_in_mabc(self, codec, quiet_medium, rng):
        """MABC has no direct path: a corrupted broadcast must surface as a
        flagged failure, not a wrong payload."""
        amp = 3.0
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        frame_a, frame_b = codec.crc.append(wa), codec.crc.append(wb)
        corrupted = xor_bits(frame_a, frame_b).copy()
        corrupted[0] ^= 1
        out = transmit(quiet_medium, "r", amp * codec.encode_frame_bits(corrupted), rng)
        relay_at_b = codec.decode(
            out["b"],
            quiet_medium.complex_gains[frozenset(("b", "r"))],
            1e-9,
            amplitude=amp,
        )
        estimate = arbitrate_paths(
            codec, relay_frame=relay_at_b, own_frame_bits=frame_b, direct_frame=None
        )
        assert estimate.path is DecodePath.FAILED
        assert not estimate.crc_ok
