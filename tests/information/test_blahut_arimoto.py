"""Unit tests for repro.information.blahut_arimoto."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, InvalidDistributionError
from repro.information.blahut_arimoto import blahut_arimoto, channel_capacity
from repro.information.discrete import joint_from_channel, mutual_information
from repro.information.functions import binary_entropy


class TestKnownCapacities:
    def test_bsc_capacity(self):
        for p in (0.0, 0.05, 0.11, 0.3, 0.5):
            matrix = np.array([[1 - p, p], [p, 1 - p]])
            assert channel_capacity(matrix) == pytest.approx(
                1 - binary_entropy(p), abs=1e-7
            )

    def test_bec_capacity(self):
        for e in (0.0, 0.2, 0.5, 0.9):
            matrix = np.array([[1 - e, 0.0, e], [0.0, 1 - e, e]])
            assert channel_capacity(matrix) == pytest.approx(1 - e, abs=1e-7)

    def test_noiseless_ternary(self):
        assert channel_capacity(np.eye(3)) == pytest.approx(np.log2(3), abs=1e-7)

    def test_useless_channel_capacity_zero(self):
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert channel_capacity(matrix) == pytest.approx(0.0, abs=1e-9)

    def test_z_channel_known_value(self):
        # Z-channel with flip probability 0.5 has capacity log2(5/4) ≈ 0.3219.
        matrix = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert channel_capacity(matrix) == pytest.approx(np.log2(1.25), abs=1e-6)


class TestBlahutArimotoMechanics:
    def test_symmetric_channel_uniform_input(self):
        p = 0.2
        result = blahut_arimoto(np.array([[1 - p, p], [p, 1 - p]]))
        np.testing.assert_allclose(result.input_distribution, [0.5, 0.5], atol=1e-5)

    def test_gap_certificate(self):
        result = blahut_arimoto(np.array([[0.8, 0.2], [0.1, 0.9]]), tol=1e-10)
        assert 0.0 <= result.gap < 1e-10

    def test_iteration_budget_enforced(self):
        with pytest.raises(ConvergenceError):
            blahut_arimoto(np.array([[0.8, 0.2], [0.1, 0.9]]), tol=1e-12, max_iter=2)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(InvalidDistributionError):
            blahut_arimoto(np.array([[0.9, 0.2], [0.1, 0.9]]))

    def test_non_matrix_rejected(self):
        with pytest.raises(InvalidDistributionError):
            blahut_arimoto(np.ones(3) / 3)

    def test_input_distribution_valid(self):
        result = blahut_arimoto(np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert result.input_distribution.sum() == pytest.approx(1.0)
        assert np.all(result.input_distribution >= 0)

    def test_capacity_upper_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            raw = rng.random((3, 4))
            matrix = raw / raw.sum(axis=1, keepdims=True)
            capacity = channel_capacity(matrix, tol=1e-9)
            assert -1e-9 <= capacity <= np.log2(3) + 1e-9


def _property_test_channel(seed):
    """The 3x2 channel the Blahut–Arimoto property tests draw for ``seed``."""
    rng = np.random.default_rng(seed)
    raw = rng.random((3, 2)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestNearDuplicateInputs:
    """Two near-identical input rows once stalled the gap past 50,000 steps."""

    @pytest.mark.parametrize("seed", [7267, 10895])
    def test_converges_with_a_certified_gap(self, seed):
        channel = _property_test_channel(seed)
        result = blahut_arimoto(channel, tol=1e-6, max_iter=50_000)
        assert 0.0 <= result.gap <= 1e-6
        assert result.iterations < 5_000
        joint = joint_from_channel(result.input_distribution, channel)
        assert mutual_information(joint, [0], [1]) == pytest.approx(
            result.capacity, abs=1e-9
        )

    @pytest.mark.parametrize("seed", [7267, 10895])
    def test_matches_the_extreme_input_subchannel(self, seed):
        """A binary-output capacity is attained on the two extreme rows."""
        channel = _property_test_channel(seed)
        extremes = channel[[np.argmin(channel[:, 0]), np.argmax(channel[:, 0])]]
        reference = blahut_arimoto(extremes, tol=1e-12).capacity
        capacity = blahut_arimoto(channel, tol=1e-6, max_iter=50_000).capacity
        assert reference - 1e-6 <= capacity <= reference + 1e-12

    def test_exact_duplicate_rows_match_the_deduplicated_channel(self):
        channel = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8]])
        result = blahut_arimoto(channel, tol=1e-10)
        reference = blahut_arimoto(channel[1:], tol=1e-12).capacity
        assert result.capacity == pytest.approx(reference, abs=1e-10)
