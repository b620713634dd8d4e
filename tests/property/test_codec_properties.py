"""Property-based tests for the coding/modulation pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.bits import (
    bits_to_int,
    hamming_distance,
    hamming_distance_rows,
    int_to_bits,
    pad_bits,
    xor_bits,
)
from repro.simulation.convolutional import NASA_CODE, TEST_CODE
from repro.simulation.crc import CRC8, CRC16_CCITT
from repro.simulation.interleaver import BlockInterleaver, RandomInterleaver
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.modulation import Bpsk, Qpsk, hard_decisions

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200)
even_bit_lists = bit_lists.filter(lambda bits: len(bits) % 2 == 0)


class TestBitUtilityProperties:
    @given(st.integers(min_value=0, max_value=2**30 - 1))
    def test_int_bits_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 30)) == value

    @given(bit_lists)
    def test_xor_self_annihilates(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert xor_bits(arr, arr).sum() == 0

    @given(bit_lists, st.integers(min_value=0, max_value=50))
    def test_pad_preserves_prefix(self, bits, extra):
        arr = np.array(bits, dtype=np.uint8)
        padded = pad_bits(arr, arr.size + extra)
        np.testing.assert_array_equal(padded[: arr.size], arr)
        assert padded[arr.size :].sum() == 0


def _bit_arrays_of_length(n, count):
    """``count`` independent bit arrays of length ``n``."""
    bits = st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
    array = bits.map(lambda values: np.array(values, dtype=np.uint8))
    return st.tuples(*[array] * count)


def _equal_length_bit_arrays(count):
    """``count`` bit arrays sharing one random length."""
    lengths = st.integers(min_value=1, max_value=64)
    return lengths.flatmap(lambda n: _bit_arrays_of_length(n, count))


class TestXorCombineProperties:
    """``xor_bits`` is the group operation of GF(2)^n, the relay's combine."""

    @given(_equal_length_bit_arrays(2))
    def test_commutativity(self, pair):
        x, y = pair
        np.testing.assert_array_equal(xor_bits(x, y), xor_bits(y, x))

    @given(_equal_length_bit_arrays(3))
    def test_associativity(self, triple):
        x, y, z = triple
        np.testing.assert_array_equal(
            xor_bits(xor_bits(x, y), z), xor_bits(x, xor_bits(y, z))
        )

    @given(bit_lists)
    def test_zeros_are_the_identity(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        np.testing.assert_array_equal(xor_bits(arr, np.zeros_like(arr)), arr)

    @given(bit_lists, bit_lists)
    def test_relay_roundtrip_any_lengths(self, bits_a, bits_b):
        wa, wb = np.array(bits_a, np.uint8), np.array(bits_b, np.uint8)
        length = max(wa.size, wb.size)
        broadcast = xor_bits(pad_bits(wa, length), pad_bits(wb, length))
        np.testing.assert_array_equal(
            xor_bits(broadcast, pad_bits(wa, length))[: wb.size], wb
        )
        np.testing.assert_array_equal(
            xor_bits(broadcast, pad_bits(wb, length))[: wa.size], wa
        )

    @given(_equal_length_bit_arrays(3))
    def test_hamming_is_a_metric(self, triple):
        x, y, z = triple
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, y) == 0) == bool(np.array_equal(x, y))
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)

    @given(_equal_length_bit_arrays(4))
    def test_hamming_rows_match_scalar(self, arrays):
        x_rows, y_rows = np.stack(arrays[:2]), np.stack(arrays[2:])
        np.testing.assert_array_equal(
            hamming_distance_rows(x_rows, y_rows),
            [hamming_distance(a, b) for a, b in zip(x_rows, y_rows)],
        )


class TestCrcProperties:
    @given(bit_lists)
    def test_append_check_roundtrip(self, bits):
        frame = CRC16_CCITT.append(np.array(bits, dtype=np.uint8))
        assert CRC16_CCITT.check(frame)

    @given(bit_lists, st.integers(min_value=0, max_value=10**9))
    def test_single_flip_always_detected(self, bits, position_seed):
        frame = CRC8.append(np.array(bits, dtype=np.uint8))
        corrupted = frame.copy()
        corrupted[position_seed % frame.size] ^= 1
        assert not CRC8.check(corrupted)

    @given(bit_lists)
    def test_linearity(self, bits):
        a = np.array(bits, dtype=np.uint8)
        b = np.roll(a, 1)
        lhs = CRC16_CCITT.checksum(xor_bits(a, b))
        rhs = xor_bits(CRC16_CCITT.checksum(a), CRC16_CCITT.checksum(b))
        np.testing.assert_array_equal(lhs, rhs)


class TestConvolutionalProperties:
    @settings(max_examples=30, deadline=None)
    @given(bit_lists)
    def test_decode_encode_identity(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        coded = TEST_CODE.encode(arr)
        decoded = TEST_CODE.decode_hard(coded, arr.size)
        np.testing.assert_array_equal(decoded, arr)

    @settings(max_examples=30, deadline=None)
    @given(bit_lists, st.integers(min_value=0, max_value=10**9))
    def test_single_coded_bit_error_corrected(self, bits, position_seed):
        arr = np.array(bits, dtype=np.uint8)
        coded = TEST_CODE.encode(arr)
        corrupted = coded.copy()
        corrupted[position_seed % coded.size] ^= 1
        decoded = TEST_CODE.decode_hard(corrupted, arr.size)
        np.testing.assert_array_equal(decoded, arr)

    @given(bit_lists, bit_lists)
    def test_linearity(self, bits_a, bits_b):
        n = min(len(bits_a), len(bits_b))
        a = np.array(bits_a[:n], dtype=np.uint8)
        b = np.array(bits_b[:n], dtype=np.uint8)
        lhs = TEST_CODE.encode(np.bitwise_xor(a, b))
        rhs = np.bitwise_xor(TEST_CODE.encode(a), TEST_CODE.encode(b))
        np.testing.assert_array_equal(lhs, rhs)


#: LLR values that stress the certificate's guards and the ACS tie rules.
_SPECIAL_LLRS = (0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf)


class TestCertifiedCandidateProperties:
    """``decode_rows(llr, n, sent=candidate)`` equals the oracle, row by row."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([NASA_CODE, TEST_CODE]),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.0, 0.5, 2.0]),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.sampled_from(_SPECIAL_LLRS),
            ),
            max_size=3,
        ),
    )
    def test_any_candidate_decodes_like_the_oracle(
        self, code, n_info, seed, sigma, ties, specials
    ):
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, size=(6, n_info), dtype=np.uint8)
        llrs = 4.0 * (1.0 - 2.0 * code.encode_rows(info))
        llrs = llrs + rng.normal(0.0, sigma, size=llrs.shape)
        if ties:  # integer LLRs: many equal path metrics
            llrs = np.round(llrs)
        for position, value in specials:
            llrs.flat[position % llrs.size] = value
        # Candidates: the sent words (rows 0-1), the sent words with 1-3
        # bits flipped (rows 2-3) and random words (rows 4-5).
        candidates = info.copy()
        for row in (2, 3):
            flips = rng.choice(n_info, size=min(n_info, 1 + row % 3), replace=False)
            candidates[row, flips] ^= 1
        candidates[4:] = rng.integers(0, 2, size=(2, n_info), dtype=np.uint8)
        with np.errstate(invalid="ignore", over="ignore"):
            batch = code.decode_rows(llrs, n_info, sent=candidates)
            expected = [code.decode(row, n_info) for row in llrs]
        assert not np.shares_memory(batch, candidates)
        for index, row in enumerate(expected):
            np.testing.assert_array_equal(batch[index], row, err_msg=f"row {index}")


class TestInterleaverProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=500),
    )
    def test_random_interleaver_roundtrip(self, seed, length):
        interleaver = RandomInterleaver(seed=seed)
        data = np.arange(length)
        out = interleaver.deinterleave(interleaver.interleave(data))
        np.testing.assert_array_equal(out, data)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_block_interleaver_roundtrip(self, n_rows, n_cols, data):
        length = data.draw(st.integers(min_value=1, max_value=n_rows * n_cols))
        interleaver = BlockInterleaver(rows=n_rows, cols=n_cols)
        values = np.arange(length)
        out = interleaver.deinterleave(interleaver.interleave(values))
        np.testing.assert_array_equal(out, values)


class TestModulationProperties:
    @given(bit_lists)
    def test_bpsk_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        mod = Bpsk()
        llrs = mod.demodulate_llr(mod.modulate(arr), 1.0 + 0j, noise_power=1.0)
        np.testing.assert_array_equal(hard_decisions(llrs), arr)

    @given(even_bit_lists)
    def test_qpsk_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        mod = Qpsk()
        llrs = mod.demodulate_llr(mod.modulate(arr), 1.0 + 0j, noise_power=1.0)
        np.testing.assert_array_equal(hard_decisions(llrs), arr)


class TestLinkCodecProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=8, max_value=64),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_clean_roundtrip_any_size(self, payload_bits, seed):
        rng = np.random.default_rng(seed)
        codec = LinkCodec(payload_bits=payload_bits, code=TEST_CODE, crc=CRC8)
        payload = rng.integers(0, 2, size=payload_bits, dtype=np.uint8)
        frame = codec.decode(codec.encode(payload), 1.0 + 0j, 1e-9)
        assert frame.crc_ok
        np.testing.assert_array_equal(frame.payload, payload)
