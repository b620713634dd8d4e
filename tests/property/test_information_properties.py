"""Property-based tests for the information-theory substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.information.blahut_arimoto import blahut_arimoto
from repro.information.discrete import (
    entropy,
    joint_from_channel,
    marginal,
    mutual_information,
    normalize_distribution,
)
from repro.information.functions import (
    binary_entropy,
    db_to_linear,
    gaussian_capacity,
    inverse_gaussian_capacity,
    linear_to_db,
)

snr = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive_snr = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestCapacityFunction:
    @given(snr)
    def test_nonnegative(self, x):
        assert gaussian_capacity(x) >= 0.0

    @given(positive_snr, positive_snr)
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert gaussian_capacity(lo) <= gaussian_capacity(hi) + 1e-12

    @given(positive_snr, positive_snr)
    def test_concave_midpoint(self, x, y):
        mid = gaussian_capacity((x + y) / 2.0)
        chord = (gaussian_capacity(x) + gaussian_capacity(y)) / 2.0
        assert mid >= chord - 1e-9

    @given(positive_snr, positive_snr)
    def test_subadditive_in_snr(self, x, y):
        """C(x + y) <= C(x) + C(y): why the MAC sum constraint binds."""
        bound = gaussian_capacity(x) + gaussian_capacity(y) + 1e-9
        assert gaussian_capacity(x + y) <= bound

    @given(st.floats(min_value=0.0, max_value=40.0))
    def test_inverse_roundtrip(self, rate):
        recovered = gaussian_capacity(inverse_gaussian_capacity(rate))
        assert recovered == pytest.approx(rate, abs=1e-9)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_db_roundtrip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)


class TestBinaryEntropyProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p))


weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6)


class TestDiscreteEntropyProperties:
    @given(weights)
    def test_entropy_bounds(self, raw):
        p = normalize_distribution(np.array(raw))
        h = entropy(p)
        assert -1e-12 <= h <= np.log2(p.size) + 1e-9

    @given(weights, weights)
    def test_mi_nonnegative_and_symmetric(self, wx, wy):
        px = normalize_distribution(np.array(wx))
        py = normalize_distribution(np.array(wy))
        joint = np.outer(px, py)
        # Perturb towards correlation while keeping validity.
        if joint.shape[0] == joint.shape[1]:
            joint = joint + joint.T @ joint
        joint = normalize_distribution(joint)
        mi_xy = mutual_information(joint, [0], [1])
        mi_yx = mutual_information(joint, [1], [0])
        assert mi_xy >= 0.0
        assert mi_xy == pytest.approx(mi_yx, abs=1e-9)

    @given(weights)
    def test_mi_bounded_by_marginal_entropies(self, raw):
        rng = np.random.default_rng(abs(hash(tuple(raw))) % (2**31))
        joint = normalize_distribution(rng.random((3, 3)))
        mi = mutual_information(joint, [0], [1])
        assert mi <= entropy(marginal(joint, [0])) + 1e-9
        assert mi <= entropy(marginal(joint, [1])) + 1e-9


rows = st.integers(min_value=2, max_value=4)
cols = st.integers(min_value=2, max_value=4)


class TestBlahutArimotoProperties:
    @settings(max_examples=20, deadline=None)
    @given(rows, cols, st.integers(min_value=0, max_value=2**31 - 1))
    def test_capacity_dominates_uniform_input_mi(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((n_in, n_out)) + 1e-3
        matrix = raw / raw.sum(axis=1, keepdims=True)
        result = blahut_arimoto(matrix, tol=1e-6, max_iter=50_000)
        uniform = np.full(n_in, 1.0 / n_in)
        joint = joint_from_channel(uniform, matrix)
        assert result.capacity >= mutual_information(joint, [0], [1]) - 1e-7

    @settings(max_examples=20, deadline=None)
    @given(rows, cols, st.integers(min_value=0, max_value=2**31 - 1))
    def test_capacity_bounded_by_alphabets(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((n_in, n_out)) + 1e-3
        matrix = raw / raw.sum(axis=1, keepdims=True)
        capacity = blahut_arimoto(matrix, tol=1e-6, max_iter=50_000).capacity
        assert capacity <= min(np.log2(n_in), np.log2(n_out)) + 1e-7
