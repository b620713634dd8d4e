"""Unit tests for repro.simulation.interleaver."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation.interleaver import (
    BlockInterleaver,
    RandomInterleaver,
    identity_permutation,
)


class TestBlockInterleaver:
    def test_full_matrix_roundtrip(self, rng):
        interleaver = BlockInterleaver(rows=4, cols=8)
        data = rng.normal(size=32)
        out = interleaver.deinterleave(interleaver.interleave(data))
        np.testing.assert_array_equal(out, data)

    def test_partial_length_roundtrip(self, rng):
        interleaver = BlockInterleaver(rows=4, cols=8)
        data = rng.normal(size=27)
        out = interleaver.deinterleave(interleaver.interleave(data))
        np.testing.assert_array_equal(out, data)

    def test_column_read_order(self):
        interleaver = BlockInterleaver(rows=2, cols=3)
        out = interleaver.interleave(np.arange(6))
        np.testing.assert_array_equal(out, [0, 3, 1, 4, 2, 5])

    def test_disperses_bursts(self):
        interleaver = BlockInterleaver(rows=8, cols=8)
        burst = np.zeros(64)
        burst[:8] = 1.0  # 8 adjacent errors
        spread = interleaver.deinterleave(burst)
        positions = np.flatnonzero(spread)
        assert np.min(np.diff(positions)) >= 8  # at least a row apart

    def test_capacity_enforced(self):
        with pytest.raises(InvalidParameterError):
            BlockInterleaver(rows=2, cols=2).permutation(5)

    def test_invalid_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            BlockInterleaver(rows=0, cols=3)


class TestRandomInterleaver:
    def test_roundtrip(self, rng):
        interleaver = RandomInterleaver(seed=7)
        data = rng.normal(size=100)
        out = interleaver.deinterleave(interleaver.interleave(data))
        np.testing.assert_array_equal(out, data)

    def test_deterministic_per_seed(self):
        a = RandomInterleaver(seed=3).permutation(50)
        b = RandomInterleaver(seed=3).permutation(50)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomInterleaver(seed=3).permutation(50)
        b = RandomInterleaver(seed=4).permutation(50)
        assert not np.array_equal(a, b)

    def test_is_permutation(self):
        perm = RandomInterleaver(seed=0).permutation(64)
        assert sorted(perm.tolist()) == list(range(64))

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            RandomInterleaver(seed=0).permutation(-1)

    def test_permutation_is_cached_and_read_only(self, rng):
        interleaver = RandomInterleaver(seed=5)
        perm = interleaver.permutation(300)
        np.testing.assert_array_equal(perm, np.random.default_rng(5).permutation(300))
        assert RandomInterleaver(seed=5).permutation(300) is perm
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = perm[1]
        data = rng.normal(size=(3, 300))
        np.testing.assert_array_equal(data[:, perm], interleaver.interleave(data))
        out = interleaver.deinterleave(interleaver.interleave(data))
        np.testing.assert_array_equal(out, data)


class TestIdentity:
    def test_identity(self):
        np.testing.assert_array_equal(identity_permutation(4), [0, 1, 2, 3])

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            identity_permutation(-1)


class TestBatchedAxes:
    """Interleavers permute the last axis, so frame batches work directly."""

    @pytest.mark.parametrize(
        "interleaver",
        [BlockInterleaver(rows=6, cols=9), RandomInterleaver(seed=11)],
        ids=["block", "random"],
    )
    def test_rows_match_scalar(self, interleaver, rng):
        values = rng.normal(size=(5, 48))
        batch = interleaver.interleave(values)
        for index in range(values.shape[0]):
            np.testing.assert_array_equal(
                batch[index], interleaver.interleave(values[index])
            )
        np.testing.assert_array_equal(interleaver.deinterleave(batch), values)
