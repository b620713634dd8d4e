"""Unit tests for repro.simulation.bits."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation.bits import (
    as_bit_rows,
    as_bits,
    bit_error_rate,
    bits_to_int,
    hamming_distance,
    hamming_distance_rows,
    int_to_bits,
    pad_bits,
    random_bits,
    xor_bits,
)


class TestAsBits:
    def test_accepts_binary(self):
        out = as_bits([0, 1, 1, 0])
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [0, 1, 1, 0])

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidParameterError):
            as_bits([0, 2, 1])

    def test_rejects_2d(self):
        with pytest.raises(InvalidParameterError):
            as_bits([[0, 1], [1, 0]])

    def test_copy_semantics(self):
        source = np.array([0, 1], dtype=np.uint8)
        out = as_bits(source)
        out[0] = 1
        assert source[0] == 0


class TestAsBitRows:
    def test_accepts_binary_rows(self):
        out = as_bit_rows([[0, 1, 1], [1, 0, 0]])
        assert out.dtype == np.uint8
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, [[0, 1, 1], [1, 0, 0]])

    def test_rejects_1d(self):
        with pytest.raises(InvalidParameterError):
            as_bit_rows([0, 1, 1])

    def test_rejects_3d(self):
        with pytest.raises(InvalidParameterError):
            as_bit_rows(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidParameterError):
            as_bit_rows([[0, 1], [2, 0]])

    def test_copy_semantics(self):
        source = np.zeros((2, 2), dtype=np.uint8)
        out = as_bit_rows(source)
        out[0, 0] = 1
        assert source[0, 0] == 0

    def test_empty_batch_ok(self):
        assert as_bit_rows(np.zeros((0, 8), dtype=np.uint8)).shape == (0, 8)


class TestRandomBits:
    def test_length(self, rng):
        assert random_bits(rng, 100).shape == (100,)

    def test_roughly_balanced(self, rng):
        bits = random_bits(rng, 20000)
        assert bits.mean() == pytest.approx(0.5, abs=0.02)

    def test_negative_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            random_bits(rng, -1)

    def test_zero_ok(self, rng):
        assert random_bits(rng, 0).size == 0


class TestIntConversion:
    def test_roundtrip(self):
        for value in (0, 1, 5, 255, 1023):
            assert bits_to_int(int_to_bits(value, 10)) == value

    def test_big_endian(self):
        np.testing.assert_array_equal(int_to_bits(4, 3), [1, 0, 0])
        assert bits_to_int([1, 0, 0]) == 4

    def test_width_overflow_rejected(self):
        with pytest.raises(InvalidParameterError):
            int_to_bits(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            int_to_bits(-1, 4)


class TestXorPadHamming:
    def test_xor(self):
        np.testing.assert_array_equal(
            xor_bits([1, 0, 1, 0], [1, 1, 0, 0]), [0, 1, 1, 0]
        )

    def test_xor_self_is_zero(self, rng):
        bits = random_bits(rng, 64)
        assert xor_bits(bits, bits).sum() == 0

    def test_xor_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            xor_bits([1, 0], [1, 0, 1])

    def test_xor_with_zeros_is_identity(self, rng):
        bits = random_bits(rng, 64)
        np.testing.assert_array_equal(xor_bits(bits, np.zeros(64, np.uint8)), bits)

    def test_xor_rejects_non_binary(self):
        with pytest.raises(InvalidParameterError):
            xor_bits([1, 0], [2, 0])

    def test_relay_combine_resolves_unequal_lengths(self, rng):
        """The relay pads the shorter frame and XORs; each end strips its
        own frame from the broadcast and keeps the partner's prefix."""
        wa, wb = random_bits(rng, 24), random_bits(rng, 40)
        broadcast = xor_bits(pad_bits(wa, 40), wb)
        np.testing.assert_array_equal(xor_bits(broadcast, pad_bits(wa, 40)), wb)
        np.testing.assert_array_equal(xor_bits(broadcast, wb)[:24], wa)

    def test_pad(self):
        np.testing.assert_array_equal(pad_bits([1, 1], 4), [1, 1, 0, 0])

    def test_pad_noop(self):
        np.testing.assert_array_equal(pad_bits([1, 0], 2), [1, 0])

    def test_pad_shrink_rejected(self):
        with pytest.raises(InvalidParameterError):
            pad_bits([1, 0, 1], 2)

    def test_hamming(self):
        assert hamming_distance([1, 0, 1], [0, 0, 1]) == 1
        assert hamming_distance([1, 1], [1, 1]) == 0

    def test_ber(self):
        assert bit_error_rate([1, 0, 1, 0], [1, 1, 1, 1]) == pytest.approx(0.5)

    def test_ber_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            bit_error_rate([], [])


class TestHammingRows:
    def test_matches_per_row_distance(self, rng):
        x = rng.integers(0, 2, size=(5, 33), dtype=np.uint8)
        y = rng.integers(0, 2, size=(5, 33), dtype=np.uint8)
        expected = [hamming_distance(a, b) for a, b in zip(x, y)]
        np.testing.assert_array_equal(hamming_distance_rows(x, y), expected)

    def test_counts_are_int64(self):
        ones, zeros = np.ones((2, 300), np.uint8), np.zeros((2, 300), np.uint8)
        out = hamming_distance_rows(ones, zeros)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [300, 300])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            hamming_distance_rows(
                np.zeros((2, 4), np.uint8), np.zeros((3, 4), np.uint8)
            )
