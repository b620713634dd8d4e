"""Unit tests for repro.channels.halfduplex."""

import numpy as np
import pytest

from repro.channels.awgn import ComplexAwgn
from repro.channels.gains import LinkGains
from repro.channels.halfduplex import HalfDuplexMedium, link_amplitudes
from repro.exceptions import HalfDuplexViolationError, InvalidParameterError


@pytest.fixture
def medium(paper_gains):
    return HalfDuplexMedium(gains=paper_gains, noise=ComplexAwgn(1e-12))


class TestComplexGains:
    def test_coherent_amplitudes_match_powers(self, paper_gains):
        cg = link_amplitudes(paper_gains)
        assert abs(cg[frozenset(("a", "r"))]) ** 2 == pytest.approx(paper_gains.gar)
        assert abs(cg[frozenset(("a", "b"))]) ** 2 == pytest.approx(paper_gains.gab)
        assert abs(cg[frozenset(("b", "r"))]) ** 2 == pytest.approx(paper_gains.gbr)

    def test_random_phases_preserve_power(self, paper_gains, rng):
        cg = link_amplitudes(paper_gains, rng, random_phases=True)
        assert abs(cg[frozenset(("a", "r"))]) ** 2 == pytest.approx(paper_gains.gar)

    def test_random_phases_require_rng(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            link_amplitudes(paper_gains, None, random_phases=True)


class TestHalfDuplexSemantics:
    def test_transmitter_receives_nothing(self, medium, rng):
        out = medium.run_phase({"a": np.ones(8, dtype=complex)}, rng)
        assert out.received["a"] is None

    def test_listeners_receive_signal(self, medium, paper_gains, rng):
        out = medium.run_phase({"a": np.ones(64, dtype=complex)}, rng)
        expected_at_r = np.sqrt(paper_gains.gar)
        expected_at_b = np.sqrt(paper_gains.gab)
        assert np.allclose(out.signal_at("r"), expected_at_r, atol=1e-4)
        assert np.allclose(out.signal_at("b"), expected_at_b, atol=1e-4)

    def test_signal_at_transmitter_raises(self, medium, rng):
        out = medium.run_phase({"a": np.ones(4, dtype=complex)}, rng)
        with pytest.raises(HalfDuplexViolationError):
            out.signal_at("a")

    def test_mac_phase_superposes(self, medium, paper_gains, rng):
        out = medium.run_phase(
            {"a": np.ones(32, dtype=complex), "b": np.ones(32, dtype=complex)}, rng
        )
        expected = np.sqrt(paper_gains.gar) + np.sqrt(paper_gains.gbr)
        assert np.allclose(out.signal_at("r"), expected, atol=1e-4)
        assert out.received["a"] is None
        assert out.received["b"] is None

    def test_transmitters_recorded(self, medium, rng):
        out = medium.run_phase(
            {"a": np.ones(4, dtype=complex), "b": np.ones(4, dtype=complex)}, rng
        )
        assert out.transmitters == frozenset(("a", "b"))


class TestValidation:
    def test_unknown_node_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            medium.run_phase({"x": np.ones(4)}, rng)

    def test_none_payload_rejected(self, medium, rng):
        with pytest.raises(HalfDuplexViolationError):
            medium.run_phase({"a": None}, rng)

    def test_empty_phase_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            medium.run_phase({}, rng)

    def test_length_mismatch_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            medium.run_phase(
                {"a": np.ones(4, dtype=complex), "b": np.ones(5, dtype=complex)}, rng
            )

    def test_inconsistent_complex_gains_rejected(self, paper_gains):
        bad = link_amplitudes(paper_gains)
        bad[frozenset(("a", "r"))] = 100.0 + 0j
        with pytest.raises(InvalidParameterError):
            HalfDuplexMedium(gains=paper_gains, complex_gains=bad)

    def test_missing_complex_gain_rejected(self, paper_gains):
        partial = link_amplitudes(paper_gains)
        del partial[frozenset(("a", "b"))]
        with pytest.raises(InvalidParameterError):
            HalfDuplexMedium(gains=paper_gains, complex_gains=partial)


class TestNoiseStatistics:
    def test_unit_noise_by_default(self, paper_gains):
        medium = HalfDuplexMedium(gains=paper_gains)
        rng = np.random.default_rng(1)
        out = medium.run_phase({"a": np.zeros(50000, dtype=complex)}, rng)
        noise_power = np.mean(np.abs(out.signal_at("r")) ** 2)
        assert noise_power == pytest.approx(1.0, rel=0.05)
