"""Unit tests for repro.simulation.linkcodec."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation.bits import random_bits
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import LinkCodec, default_codec


@pytest.fixture
def codec():
    """A small, fast codec for unit tests."""
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)


class TestDimensions:
    def test_frame_bits(self, codec):
        assert codec.frame_bits == 32 + 8

    def test_coded_bits(self, codec):
        assert codec.coded_bits == (40 + 2) * 2

    def test_n_symbols_bpsk(self, codec):
        assert codec.n_symbols == codec.coded_bits

    def test_rate(self, codec):
        assert codec.rate == pytest.approx(32 / codec.n_symbols)

    def test_default_codec_dimensions(self):
        codec = default_codec(128)
        assert codec.frame_bits == 128 + 16
        assert codec.coded_bits == (144 + 6) * 2

    def test_invalid_payload_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinkCodec(payload_bits=0)


class TestRoundtrip:
    def test_noiseless(self, codec, rng):
        payload = random_bits(rng, 32)
        symbols = codec.encode(payload)
        frame = codec.decode(symbols, 1.0 + 0j, noise_power=1e-9)
        assert frame.crc_ok
        np.testing.assert_array_equal(frame.payload, payload)

    def test_with_gain_and_amplitude(self, codec, rng):
        payload = random_bits(rng, 32)
        gain = 0.4 * np.exp(1j * 1.2)
        amplitude = 2.5
        received = amplitude * gain * codec.encode(payload)
        frame = codec.decode(received, gain, noise_power=1e-9, amplitude=amplitude)
        assert frame.crc_ok
        np.testing.assert_array_equal(frame.payload, payload)

    def test_moderate_noise_decodes(self, codec, rng):
        payload = random_bits(rng, 32)
        received = 3.0 * codec.encode(payload) + 0.5 * (
            rng.normal(size=codec.n_symbols) + 1j * rng.normal(size=codec.n_symbols)
        )
        frame = codec.decode(received, 1.0 + 0j, noise_power=0.25, amplitude=3.0)
        assert frame.crc_ok
        np.testing.assert_array_equal(frame.payload, payload)

    def test_pure_noise_fails_crc(self, codec, rng):
        noise = rng.normal(size=codec.n_symbols) + 1j * rng.normal(size=codec.n_symbols)
        frame = codec.decode(noise, 1.0 + 0j, noise_power=1.0)
        assert not frame.crc_ok

    def test_frame_bits_roundtrip(self, codec, rng):
        frame_bits = codec.crc.append(random_bits(rng, 32))
        symbols = codec.encode_frame_bits(frame_bits)
        decoded = codec.decode(symbols, 1.0 + 0j, noise_power=1e-9)
        np.testing.assert_array_equal(decoded.frame_bits, frame_bits)


class TestValidation:
    def test_wrong_payload_size_rejected(self, codec, rng):
        with pytest.raises(InvalidParameterError):
            codec.encode(random_bits(rng, 31))

    def test_wrong_frame_size_rejected(self, codec, rng):
        with pytest.raises(InvalidParameterError):
            codec.encode_frame_bits(random_bits(rng, 32))

    def test_wrong_symbol_count_rejected(self, codec):
        with pytest.raises(InvalidParameterError):
            codec.decode(np.zeros(5, dtype=complex), 1.0 + 0j, 1.0)

    def test_wrong_llr_count_rejected(self, codec):
        with pytest.raises(InvalidParameterError):
            codec.decode_llrs(np.zeros(5))


class TestInterleaving:
    def test_different_seeds_give_different_symbols(self, rng):
        payload = random_bits(rng, 32)
        codec_a = LinkCodec(
            payload_bits=32, code=TEST_CODE, crc=CRC8, interleaver_seed=1
        )
        codec_b = LinkCodec(
            payload_bits=32, code=TEST_CODE, crc=CRC8, interleaver_seed=2
        )
        assert not np.allclose(codec_a.encode(payload), codec_b.encode(payload))

    def test_seed_mismatch_breaks_decoding(self, rng):
        payload = random_bits(rng, 32)
        codec_a = LinkCodec(
            payload_bits=32, code=TEST_CODE, crc=CRC8, interleaver_seed=1
        )
        codec_b = LinkCodec(
            payload_bits=32, code=TEST_CODE, crc=CRC8, interleaver_seed=2
        )
        frame = codec_b.decode(codec_a.encode(payload), 1.0 + 0j, 1e-9)
        assert not frame.crc_ok


class TestBatchedPipeline:
    """The row-batched codec must equal the scalar pipeline bit for bit."""

    def test_encode_rows_match_scalar(self, codec, rng):
        rows = np.stack([random_bits(rng, 32) for _ in range(6)])
        batch = codec.encode_rows(rows)
        for index in range(rows.shape[0]):
            np.testing.assert_array_equal(batch[index], codec.encode(rows[index]))

    def test_decode_rows_match_scalar(self, codec, rng):
        gain = 0.9 + 0.2j
        payloads = np.stack([random_bits(rng, 32) for _ in range(6)])
        symbols = np.stack([gain * codec.encode(row) for row in payloads])
        noisy = symbols + 0.4 * (
            rng.normal(size=symbols.shape) + 1j * rng.normal(size=symbols.shape)
        )
        sent = codec.crc.append_rows(payloads)
        batch = codec.decode_rows(noisy, gain, 0.32, amplitude=1.0, sent=sent)
        for index in range(noisy.shape[0]):
            scalar = codec.decode(noisy[index], gain, 0.32, amplitude=1.0)
            frame = batch.frame(index)
            np.testing.assert_array_equal(frame.payload, scalar.payload)
            np.testing.assert_array_equal(frame.frame_bits, scalar.frame_bits)
            assert frame.crc_ok == scalar.crc_ok

    def test_round_trip_rows(self, codec, rng):
        rows = np.stack([random_bits(rng, 32) for _ in range(5)])
        decoded = codec.decode_rows(
            codec.encode_rows(rows), 1.0 + 0j, 1e-9, sent=codec.crc.append_rows(rows)
        )
        np.testing.assert_array_equal(decoded.payload, rows)
        assert decoded.crc_ok.all()
        assert len(decoded) == 5

    def test_row_shapes_validated(self, codec):
        with pytest.raises(InvalidParameterError):
            codec.encode_rows(np.zeros((2, 16), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            codec.encode_frame_rows(np.zeros((2, 16), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            codec.demodulate_rows(np.zeros((2, 5), dtype=complex), 1.0 + 0j, 1.0)
        with pytest.raises(InvalidParameterError):
            codec.decode_llr_rows(np.zeros((2, 5)), np.zeros((2, codec.frame_bits)))
