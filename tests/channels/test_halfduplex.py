"""Unit tests for repro.channels.halfduplex."""

import numpy as np
import pytest

from repro.channels.awgn import ComplexAwgn
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


def one_round(medium, transmissions, rng, listeners=None):
    """Run one phase as a one-round batch of the row-batched medium."""
    rows = {
        node: x if x is None else np.asarray(x)[None, :]
        for node, x in transmissions.items()
    }
    if listeners is None:
        listeners = tuple(n for n in ("a", "b", "r") if n not in transmissions)
    return medium.run_phase_rows(rows, listeners, rng)


class TestHalfDuplexSemantics:
    def test_transmitter_receives_nothing(self, medium, rng):
        out = one_round(medium, {"a": np.ones(8, dtype=complex)}, rng)
        assert "a" not in out.received
        assert set(out.received) == {"b", "r"}

    def test_listeners_receive_signal(self, medium, paper_gains, rng):
        out = one_round(medium, {"a": np.ones(64, dtype=complex)}, rng)
        expected_at_r = np.sqrt(paper_gains.gar)
        expected_at_b = np.sqrt(paper_gains.gab)
        assert out.signal_at("r").shape == (1, 64)
        assert np.allclose(out.signal_at("r"), expected_at_r, atol=1e-4)
        assert np.allclose(out.signal_at("b"), expected_at_b, atol=1e-4)

    def test_signal_at_transmitter_raises(self, medium, rng):
        out = one_round(medium, {"a": np.ones(4, dtype=complex)}, rng)
        with pytest.raises(HalfDuplexViolationError):
            out.signal_at("a")

    def test_mac_phase_superposes(self, medium, paper_gains, rng):
        out = one_round(
            medium,
            {"a": np.ones(32, dtype=complex), "b": np.ones(32, dtype=complex)},
            rng,
        )
        expected = np.sqrt(paper_gains.gar) + np.sqrt(paper_gains.gbr)
        assert np.allclose(out.signal_at("r"), expected, atol=1e-4)
        assert set(out.received) == {"r"}

    def test_transmitters_recorded(self, medium, rng):
        out = one_round(
            medium,
            {"a": np.ones(4, dtype=complex), "b": np.ones(4, dtype=complex)},
            rng,
        )
        assert out.transmitters == frozenset(("a", "b"))


class TestValidation:
    def test_unknown_node_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            one_round(medium, {"x": np.ones(4)}, rng, listeners=("r",))

    def test_none_payload_rejected(self, medium, rng):
        with pytest.raises(HalfDuplexViolationError):
            one_round(medium, {"a": None}, rng)

    def test_empty_phase_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            one_round(medium, {}, rng)

    def test_length_mismatch_rejected(self, medium, rng):
        with pytest.raises(InvalidParameterError):
            one_round(
                medium,
                {"a": np.ones(4, dtype=complex), "b": np.ones(5, dtype=complex)},
                rng,
            )

    def test_transmitter_cannot_listen(self, medium, rng):
        with pytest.raises(HalfDuplexViolationError):
            one_round(medium, {"a": np.ones(4, dtype=complex)}, rng, listeners=("a",))

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
        out = one_round(medium, {"a": np.zeros(50000, dtype=complex)}, rng)
        noise_power = np.mean(np.abs(out.signal_at("r")) ** 2)
        assert noise_power == pytest.approx(1.0, rel=0.05)
