"""Unit tests for the convolutional code and Viterbi decoder."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation.bits import random_bits
from repro.simulation.convolutional import (
    NASA_CODE,
    TEST_CODE,
    ConvolutionalCode,
    _gf2_mul,
)

RATE_THIRD_CODE = ConvolutionalCode(generators=(0o5, 0o7, 0o7), constraint_length=3)


class TestEncoding:
    def test_output_length(self):
        assert TEST_CODE.n_coded_bits(10) == (10 + 2) * 2
        assert NASA_CODE.n_coded_bits(100) == (100 + 6) * 2

    def test_known_sequence_k3(self):
        # (5, 7) code: g0 = 101, g1 = 111. Input 1 0 0 (impulse) gives the
        # generator taps on the two output streams.
        coded = TEST_CODE.encode([1])
        # T = 3 steps; outputs interleaved (g0, g1) per step.
        np.testing.assert_array_equal(coded, [1, 1, 0, 1, 1, 1])

    def test_linearity(self, rng):
        a = random_bits(rng, 20)
        b = random_bits(rng, 20)
        lhs = TEST_CODE.encode(np.bitwise_xor(a, b))
        rhs = np.bitwise_xor(TEST_CODE.encode(a), TEST_CODE.encode(b))
        np.testing.assert_array_equal(lhs, rhs)

    def test_zero_input_gives_zero_output(self):
        coded = TEST_CODE.encode(np.zeros(16, dtype=np.uint8))
        assert coded.sum() == 0

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidParameterError):
            TEST_CODE.encode([])

    def test_generator_validation(self):
        with pytest.raises(InvalidParameterError):
            ConvolutionalCode(generators=(0o17,), constraint_length=3)
        with pytest.raises(InvalidParameterError):
            ConvolutionalCode(generators=(), constraint_length=3)
        with pytest.raises(InvalidParameterError):
            ConvolutionalCode(generators=(0o5,), constraint_length=1)


class TestViterbiDecoding:
    @pytest.mark.parametrize("code", [TEST_CODE, NASA_CODE], ids=["k3", "k7"])
    def test_noiseless_roundtrip(self, code, rng):
        for length in (1, 8, 57):
            bits = random_bits(rng, length)
            coded = code.encode(bits)
            np.testing.assert_array_equal(code.decode_hard(coded, length), bits)

    def test_corrects_scattered_errors_k7(self, rng):
        bits = random_bits(rng, 120)
        coded = NASA_CODE.encode(bits)
        corrupted = coded.copy()
        # d_free = 10 for (133, 171): 4 well-separated errors are correctable.
        for position in (5, 60, 130, 200):
            corrupted[position] ^= 1
        np.testing.assert_array_equal(NASA_CODE.decode_hard(corrupted, 120), bits)

    def test_corrects_two_adjacent_errors_k3(self, rng):
        bits = random_bits(rng, 40)
        coded = TEST_CODE.encode(bits)
        corrupted = coded.copy()
        corrupted[10] ^= 1
        corrupted[30] ^= 1
        np.testing.assert_array_equal(TEST_CODE.decode_hard(corrupted, 40), bits)

    def test_soft_beats_hard_at_moderate_noise(self):
        """Soft-decision Viterbi must not be worse than hard-decision."""
        rng = np.random.default_rng(99)
        code = TEST_CODE
        n_info, n_trials, sigma = 60, 60, 0.9
        hard_errors = soft_errors = 0
        for _ in range(n_trials):
            bits = random_bits(rng, n_info)
            coded = code.encode(bits).astype(float)
            tx = 1.0 - 2.0 * coded
            rx = tx + rng.normal(0.0, sigma, size=tx.shape)
            llrs = 2.0 * rx / sigma**2
            soft = code.decode(llrs, n_info)
            hard = code.decode_hard((rx < 0).astype(np.uint8), n_info)
            soft_errors += int(np.sum(soft != bits))
            hard_errors += int(np.sum(hard != bits))
        assert soft_errors <= hard_errors

    def test_llr_length_validated(self):
        with pytest.raises(InvalidParameterError):
            TEST_CODE.decode(np.zeros(10), 10)

    def test_decode_prefers_likely_path(self):
        # All-zero LLRs strongly favouring 0 decode to the all-zero word.
        n_info = 12
        llrs = np.full(TEST_CODE.n_coded_bits(n_info), 5.0)
        np.testing.assert_array_equal(
            TEST_CODE.decode(llrs, n_info), np.zeros(n_info, dtype=np.uint8)
        )


class TestCodeProperties:
    def test_rate(self):
        assert TEST_CODE.n_outputs == 2
        assert NASA_CODE.n_states == 64

    def test_rate_third_code(self, rng):
        code = ConvolutionalCode(generators=(0o5, 0o7, 0o7), constraint_length=3)
        bits = random_bits(rng, 30)
        coded = code.encode(bits)
        assert coded.size == (30 + 2) * 3
        np.testing.assert_array_equal(code.decode_hard(coded, 30), bits)

    def test_trellis_tables_cached(self):
        code = ConvolutionalCode(generators=(0o5, 0o7), constraint_length=3)
        first = code._trellis()
        second = code._trellis()
        assert first is second


class TestBatchedRows:
    """Batched encode/decode must equal the scalar paths bit for bit."""

    @pytest.mark.parametrize(
        "code", [TEST_CODE, NASA_CODE], ids=["test-code", "nasa-code"]
    )
    @pytest.mark.parametrize("n_info", [1, 5, 32, 144])
    def test_encode_rows_match_scalar(self, code, n_info, rng):
        rows = np.stack([random_bits(rng, n_info) for _ in range(7)])
        batch = code.encode_rows(rows)
        for index in range(rows.shape[0]):
            np.testing.assert_array_equal(batch[index], code.encode(rows[index]))

    @pytest.mark.parametrize(
        "code",
        [TEST_CODE, NASA_CODE, RATE_THIRD_CODE],
        ids=["test-code", "nasa-code", "rate-third-code"],
    )
    @pytest.mark.parametrize("n_info", [1, 2, 17, 32, 80, 144])
    def test_decode_rows_match_scalar(self, code, n_info, rng):
        llrs = rng.normal(0.0, 3.0, size=(7, code.n_coded_bits(n_info)))
        batch = code.decode_rows(llrs, n_info)
        for index in range(llrs.shape[0]):
            np.testing.assert_array_equal(
                batch[index], code.decode(llrs[index], n_info)
            )

    def test_rate_third_code_rows(self, rng):
        code = ConvolutionalCode(generators=(0o5, 0o7, 0o7), constraint_length=3)
        rows = np.stack([random_bits(rng, 20) for _ in range(5)])
        coded = code.encode_rows(rows).astype(float)
        decoded = code.decode_rows(1.0 - 2.0 * coded, 20)
        np.testing.assert_array_equal(decoded, rows)

    def test_decode_rows_shape_validated(self):
        with pytest.raises(InvalidParameterError):
            TEST_CODE.decode_rows(np.zeros((3, 10)), 10)
        with pytest.raises(InvalidParameterError):
            TEST_CODE.decode_rows(np.zeros(TEST_CODE.n_coded_bits(10)), 10)

    def test_encode_rows_empty_block_rejected(self):
        with pytest.raises(InvalidParameterError):
            TEST_CODE.encode_rows(np.zeros((3, 0), dtype=np.uint8))


ORACLE_CODES = [NASA_CODE, TEST_CODE, RATE_THIRD_CODE]
ORACLE_IDS = ["nasa", "k3", "rate-third"]


def assert_rows_match_oracle(code, llrs, n_info):
    """decode_rows must equal the per-frame decode row for row, bit for bit."""
    with np.errstate(invalid="ignore", over="ignore"):
        batch = code.decode_rows(llrs, n_info)
        scalar = [code.decode(row, n_info) for row in llrs]
    assert batch.shape == (llrs.shape[0], n_info)
    assert batch.dtype == np.uint8
    for index, expected in enumerate(scalar):
        np.testing.assert_array_equal(batch[index], expected, err_msg=f"row {index}")


def codeword_llrs(code, rng, n_rows, n_info, amplitude=4.0):
    """Noiseless BPSK LLRs of random codewords, plus their information bits."""
    info = rng.integers(0, 2, size=(n_rows, n_info), dtype=np.uint8)
    coded = code.encode_rows(info).astype(float)
    return amplitude * (1.0 - 2.0 * coded), info


def generator_polynomial(code, g):
    """GF(2)[D] polynomial of a generator, bit i holding the D^i coefficient."""
    k = code.constraint_length
    return sum(((g >> (k - 1 - i)) & 1) << i for i in range(k))


class TestExactFastPaths:
    """The butterfly ACS and the certified shortcut against the oracle."""

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_near_codeword_rows(self, code, rng):
        n_info = 40
        clean, info = codeword_llrs(code, rng, 24, n_info)
        noisy = clean + rng.normal(0.0, 2.5, size=clean.shape)
        llrs = np.concatenate([clean, noisy])
        _, certified = code._certified_codewords(llrs, n_info)
        # Clean rows take the shortcut; noisy rows mix both paths.
        assert certified[:24].all()
        assert not certified[24:].all()
        assert_rows_match_oracle(code, llrs, n_info)
        np.testing.assert_array_equal(code.decode_rows(clean, n_info), info)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_zero_rows(self, code):
        decoded = code.decode_rows(np.zeros((0, code.n_coded_bits(12))), 12)
        assert decoded.shape == (0, 12)
        assert decoded.dtype == np.uint8

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_one_info_bit_block(self, code, rng):
        clean, _ = codeword_llrs(code, rng, 6, 1)
        noisy = rng.normal(0.0, 1.0, size=clean.shape)
        assert_rows_match_oracle(code, np.concatenate([clean, noisy]), 1)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_exact_zero_llrs(self, code, rng):
        n_info = 20
        llrs, _ = codeword_llrs(code, rng, 6, n_info)
        llrs[0, 3] = 0.0
        llrs[1, 5] = -0.0
        llrs[2] = 0.0  # all-zero row: every path ties
        llrs[3, ::2] = 0.0
        _, certified = code._certified_codewords(llrs, n_info)
        assert not certified[:4].any()
        assert_rows_match_oracle(code, llrs, n_info)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_subnormal_llrs(self, code, rng):
        n_info = 20
        llrs, _ = codeword_llrs(code, rng, 6, n_info)
        tiny = np.finfo(float).tiny
        llrs[0] *= tiny / 16.0  # every LLR subnormal
        llrs[1, 4] *= tiny / 16.0  # one subnormal LLR
        llrs[2] = rng.normal(0.0, 1.0, size=llrs.shape[1]) * 1e-310
        _, certified = code._certified_codewords(llrs, n_info)
        assert not certified[:3].any()
        assert certified[3:].all()
        assert_rows_match_oracle(code, llrs, n_info)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_infinite_llrs(self, code, rng):
        n_info = 20
        clean, _ = codeword_llrs(code, rng, 4, n_info)
        noisy = rng.normal(0.0, 2.0, size=(6, clean.shape[1]))
        llrs = np.concatenate([clean, noisy])
        llrs[0, 0] = np.inf
        llrs[1, 7] = -np.inf
        llrs[2] *= 1e305  # a finite codeword row whose |LLR| sum exceeds 2^1020
        llrs[4, [1, 9]] = [np.inf, -np.inf]
        llrs[5, [0, 1]] = [np.inf, -np.inf]  # an inf - inf branch: NaN metrics
        llrs[6, ::5] = np.inf
        llrs[7, 2::7] = -np.inf
        llrs[8] = 1e308  # finite, but path metrics overflow
        llrs[9, 4] = np.nan
        with np.errstate(over="ignore"):
            _, certified = code._certified_codewords(llrs, n_info)
        assert not certified[[0, 1, 2, 4, 5, 6, 7, 8, 9]].any()
        assert certified[3]
        assert_rows_match_oracle(code, llrs, n_info)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_failed_certificate_takes_the_acs(self, code, rng):
        """Clean codewords whose margin shrinks below the rounding bound."""
        n_info = 30
        d_free = code._trellis()["d_free"]
        llrs, info = codeword_llrs(code, rng, 8, n_info)
        for row, scale in enumerate(10.0 ** -np.arange(0, 32, 4)):
            # Shrink d_free magnitudes: the hard decisions stay a codeword.
            llrs[row, :d_free] *= scale
        _, certified = code._certified_codewords(llrs, n_info)
        assert certified[0]
        assert not certified[-1]
        # Still the ML codeword, now found by the full ACS.
        np.testing.assert_array_equal(code.decode_rows(llrs, n_info), info)
        assert_rows_match_oracle(code, llrs, n_info)

    @pytest.mark.parametrize(
        "code",
        [
            # No oldest-register tap on the first generator: slot 1's
            # branches are not the negations of slot 0's.
            ConvolutionalCode(generators=(0o6, 0o7), constraint_length=3),
            # gcd(1 + D, ...) != 1: catastrophic, so no row can shortcut.
            ConvolutionalCode(generators=(0o3, 0o5), constraint_length=3),
            ConvolutionalCode(generators=(0o3,), constraint_length=2),
        ],
        ids=["no-oldest-tap", "catastrophic", "k2-rate-one"],
    )
    def test_unusual_codes(self, code, rng):
        n_info = 15
        clean, _ = codeword_llrs(code, rng, 4, n_info)
        noisy = clean + rng.normal(0.0, 3.0, size=clean.shape)
        assert_rows_match_oracle(code, np.concatenate([clean, noisy]), n_info)

    def test_catastrophic_code_never_shortcuts(self, rng):
        code = ConvolutionalCode(generators=(0o3, 0o5), constraint_length=3)
        assert code._trellis()["bezout"] is None
        clean, _ = codeword_llrs(code, rng, 4, 10)
        assert not code._certified_codewords(clean, 10)[1].any()

    def test_free_distances(self):
        assert NASA_CODE._trellis()["d_free"] == 10
        assert TEST_CODE._trellis()["d_free"] == 5
        assert RATE_THIRD_CODE._trellis()["d_free"] == 8

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=ORACLE_IDS)
    def test_bezout_identity(self, code):
        """Σ_j a_j·g_j = 1 over GF(2)[D]."""
        total = 0
        for a, g in zip(code._trellis()["bezout"], code.generators):
            total ^= _gf2_mul(a, generator_polynomial(code, g))
        assert total == 1
