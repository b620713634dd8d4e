"""Integration: the operational simulator against the analytic bounds.

These tests close the loop between the two halves of the library: the
link-level decode-and-forward system of :mod:`repro.simulation` must behave
the way the Section III/IV bounds predict — goodput below the bound,
success when operated far inside it, failure far outside it, and the
correct protocol ordering.
"""

import numpy as np
import pytest

from repro.channels.gains import LinkGains
from repro.core.capacity import optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.montecarlo import simulate_protocol

FAST_CODEC = LinkCodec(payload_bits=64, code=TEST_CODE, crc=CRC8)


class TestGoodputRespectsBounds:
    @pytest.mark.parametrize(
        "protocol", list(Protocol), ids=[p.value for p in Protocol]
    )
    def test_goodput_below_capacity_bound(self, protocol, paper_gains):
        power = 10.0
        report = simulate_protocol(
            protocol,
            paper_gains,
            power=power,
            n_rounds=12,
            rng=np.random.default_rng(11),
            codec=FAST_CODEC,
        )
        bound = optimal_sum_rate(
            protocol, GaussianChannel(gains=paper_gains, power=power)
        ).sum_rate
        assert report.sum_goodput <= bound + 1e-9

    def test_all_protocols_clean_at_high_snr(self, paper_gains):
        for protocol in Protocol:
            report = simulate_protocol(
                protocol,
                paper_gains,
                power=10**2.5,  # 25 dB
                n_rounds=8,
                rng=np.random.default_rng(12),
                codec=FAST_CODEC,
            )
            assert report.a_to_b.fer == 0.0, protocol
            assert report.b_to_a.fer == 0.0, protocol


class TestOperationalOrdering:
    def test_mabc_goodput_beats_tdbc_when_both_clean(self, paper_gains):
        """Same payloads, fewer channel uses: the network-coding gain."""
        power = 10**2.5
        mabc = simulate_protocol(
            Protocol.MABC,
            paper_gains,
            power=power,
            n_rounds=8,
            rng=np.random.default_rng(13),
            codec=FAST_CODEC,
        )
        tdbc = simulate_protocol(
            Protocol.TDBC,
            paper_gains,
            power=power,
            n_rounds=8,
            rng=np.random.default_rng(13),
            codec=FAST_CODEC,
        )
        assert mabc.a_to_b.fer == 0.0 and tdbc.a_to_b.fer == 0.0
        assert mabc.sum_goodput > tdbc.sum_goodput

    def test_relay_rescues_weak_direct_link(self):
        """The cellular motivation: cooperation where DT cannot operate."""
        gains = LinkGains.from_db(-25.0, 6.0, 9.0)
        power = 10.0
        dt = simulate_protocol(
            Protocol.DT,
            gains,
            power=power,
            n_rounds=10,
            rng=np.random.default_rng(14),
            codec=FAST_CODEC,
        )
        mabc = simulate_protocol(
            Protocol.MABC,
            gains,
            power=power,
            n_rounds=10,
            rng=np.random.default_rng(14),
            codec=FAST_CODEC,
        )
        assert dt.sum_goodput < mabc.sum_goodput
        assert mabc.a_to_b.fer == 0.0

    def test_tdbc_side_information_rescues_broken_relay(self):
        """With a dead relay TDBC still delivers via the direct overhears."""
        gains = LinkGains.from_db(6.0, -25.0, -25.0)
        power = 10.0
        report = simulate_protocol(
            Protocol.TDBC,
            gains,
            power=power,
            n_rounds=10,
            rng=np.random.default_rng(15),
            codec=FAST_CODEC,
        )
        # Relay decoding fails, but the direct path carries the frames.
        assert report.relay_failures > 0
        assert report.a_to_b.fer == 0.0
        assert report.b_to_a.fer == 0.0
