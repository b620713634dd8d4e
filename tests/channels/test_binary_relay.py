"""Unit tests for the discrete (binary) bidirectional relay channel."""

import pytest

from repro.channels.binary_relay import BinaryRelayChannel
from repro.core.protocols import Protocol, protocol_schedule
from repro.exceptions import InvalidParameterError
from repro.information.functions import binary_entropy
from repro.network.cutset import cutset_outer_bound
from repro.network.model import bidirectional_relay_network


@pytest.fixture
def channel():
    return BinaryRelayChannel(pab=0.2, par=0.05, pbr=0.02)


class TestChannel:
    def test_crossover_reciprocal(self, channel):
        assert channel.crossover("a", "r") == channel.crossover("r", "a")
        assert channel.crossover("a", "b") == 0.2

    def test_unknown_link_rejected(self, channel):
        with pytest.raises(InvalidParameterError):
            channel.crossover("a", "x")

    def test_crossover_domain(self):
        with pytest.raises(InvalidParameterError):
            BinaryRelayChannel(pab=0.6, par=0.1, pbr=0.1)
        with pytest.raises(InvalidParameterError):
            BinaryRelayChannel(pab=0.1, par=0.1, pbr=0.1, p_mac=0.7)

    def test_mac_noise_defaults_to_par(self, channel):
        assert channel.p_mac == pytest.approx(0.05)

    def test_link_capacity_closed_form(self, channel):
        assert channel.link_capacity("a", "b") == pytest.approx(1 - binary_entropy(0.2))


class TestOracle:
    def test_empty_sets_zero(self, channel):
        oracle = channel.oracle()
        assert (
            oracle.mutual_information(0, frozenset(), frozenset("r"), frozenset())
            == 0.0
        )

    def test_single_link_is_bsc_capacity(self, channel):
        oracle = channel.oracle()
        value = oracle.mutual_information(
            0, frozenset("a"), frozenset("r"), frozenset()
        )
        assert value == pytest.approx(1 - binary_entropy(0.05))

    def test_simo_cut_exceeds_single_link(self, channel):
        oracle = channel.oracle()
        simo = oracle.mutual_information(
            0, frozenset("a"), frozenset(("r", "b")), frozenset()
        )
        single = oracle.mutual_information(
            0, frozenset("a"), frozenset("r"), frozenset()
        )
        assert simo > single

    def test_xor_mac_sum_equals_individual(self, channel):
        """On the XOR MAC, I(Xa,Xb;Yr) = I(Xa;Yr|Xb) = 1 - h(p_mac)."""
        oracle = channel.oracle()
        sum_term = oracle.mutual_information(
            0, frozenset(("a", "b")), frozenset("r"), frozenset()
        )
        individual = oracle.mutual_information(
            0, frozenset("a"), frozenset("r"), frozenset("b")
        )
        expected = 1 - binary_entropy(channel.p_mac)
        assert sum_term == pytest.approx(expected)
        assert individual == pytest.approx(expected)

    def test_conditioned_case_uses_mac_noise(self):
        """With a distinct MAC noise, conditioning must use p_mac, not par."""
        channel = BinaryRelayChannel(pab=0.2, par=0.05, pbr=0.02, p_mac=0.15)
        oracle = channel.oracle()
        value = oracle.mutual_information(
            0, frozenset("a"), frozenset("r"), frozenset("b")
        )
        assert value == pytest.approx(1 - binary_entropy(0.15))

    def test_cache_hits(self, channel):
        oracle = channel.oracle()
        args = (0, frozenset("a"), frozenset("r"), frozenset())
        first = oracle.mutual_information(*args)
        second = oracle.mutual_information(*args)
        assert first == second
        assert len(oracle._cache) == 1


class TestEngineIntegration:
    @pytest.mark.parametrize(
        "protocol", [Protocol.MABC, Protocol.TDBC, Protocol.HBC, Protocol.NAIVE4]
    )
    def test_engine_generates_constraints(self, channel, protocol):
        constraints = cutset_outer_bound(
            bidirectional_relay_network(),
            protocol_schedule(protocol),
            channel.oracle(),
        )
        assert len(constraints) == 5
        for constraint in constraints:
            assert all(mi >= 0 for mi in constraint.phase_mi)
            assert any(mi > 0 for mi in constraint.phase_mi)
