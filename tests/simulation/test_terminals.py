"""Unit tests for repro.simulation.terminals."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.simulation.bits import random_bits, xor_bits
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import DecodedFrame, DecodedFrameBatch, LinkCodec
from repro.simulation.terminals import (
    DecodePath,
    arbitrate_paths,
    arbitrate_paths_rows,
    resolve_via_relay,
)


@pytest.fixture
def codec():
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)


def make_frame(codec, payload, *, crc_ok=True, corrupt=False):
    frame_bits = codec.crc.append(payload)
    if corrupt:
        frame_bits = frame_bits.copy()
        frame_bits[0] ^= 1
    return DecodedFrame(
        payload=codec.crc.strip(frame_bits),
        frame_bits=frame_bits,
        crc_ok=crc_ok and codec.crc.check(frame_bits),
    )


class TestResolveViaRelay:
    def test_partner_recovered(self, codec, rng):
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        own = codec.crc.append(wa)
        partner = codec.crc.append(wb)
        relay = make_frame(codec, codec.crc.strip(xor_bits(own, partner)))
        relay = DecodedFrame(
            payload=codec.crc.strip(xor_bits(own, partner)),
            frame_bits=xor_bits(own, partner),
            crc_ok=True,
        )
        estimate = resolve_via_relay(relay, own, codec.crc)
        assert estimate.crc_ok
        assert estimate.path is DecodePath.RELAY
        np.testing.assert_array_equal(estimate.payload, wb)

    def test_corrupted_relay_flagged(self, codec, rng):
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        own = codec.crc.append(wa)
        partner = codec.crc.append(wb)
        bad = xor_bits(own, partner).copy()
        bad[3] ^= 1
        relay = DecodedFrame(
            payload=codec.crc.strip(bad), frame_bits=bad, crc_ok=codec.crc.check(bad)
        )
        estimate = resolve_via_relay(relay, own, codec.crc)
        assert not estimate.crc_ok
        assert estimate.path is DecodePath.FAILED


class TestArbitration:
    def test_relay_path_preferred(self, codec, rng):
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        own = codec.crc.append(wa)
        relay = DecodedFrame(
            payload=None,
            frame_bits=xor_bits(own, codec.crc.append(wb)),
            crc_ok=True,
        )
        relay = DecodedFrame(
            payload=codec.crc.strip(relay.frame_bits),
            frame_bits=relay.frame_bits,
            crc_ok=True,
        )
        direct = make_frame(codec, random_bits(rng, 32))  # valid but different
        estimate = arbitrate_paths(
            codec, relay_frame=relay, own_frame_bits=own, direct_frame=direct
        )
        assert estimate.path is DecodePath.RELAY
        np.testing.assert_array_equal(estimate.payload, wb)

    def test_direct_fallback_when_relay_bad(self, codec, rng):
        wa, wb = random_bits(rng, 32), random_bits(rng, 32)
        own = codec.crc.append(wa)
        bad_relay_bits = xor_bits(own, codec.crc.append(wb)).copy()
        bad_relay_bits[1] ^= 1
        relay = DecodedFrame(
            payload=codec.crc.strip(bad_relay_bits),
            frame_bits=bad_relay_bits,
            crc_ok=False,
        )
        direct = make_frame(codec, wb)
        estimate = arbitrate_paths(
            codec, relay_frame=relay, own_frame_bits=own, direct_frame=direct
        )
        assert estimate.path is DecodePath.DIRECT
        assert estimate.crc_ok
        np.testing.assert_array_equal(estimate.payload, wb)

    def test_both_paths_bad_reports_failure(self, codec, rng):
        wa = random_bits(rng, 32)
        own = codec.crc.append(wa)
        bad_bits = codec.crc.append(random_bits(rng, 32)).copy()
        bad_bits[0] ^= 1
        relay = DecodedFrame(
            payload=codec.crc.strip(bad_bits), frame_bits=bad_bits, crc_ok=False
        )
        direct = DecodedFrame(
            payload=codec.crc.strip(bad_bits), frame_bits=bad_bits, crc_ok=False
        )
        estimate = arbitrate_paths(
            codec, relay_frame=relay, own_frame_bits=own, direct_frame=direct
        )
        assert estimate.path is DecodePath.FAILED
        assert not estimate.crc_ok

    def test_no_relay_uses_direct(self, codec, rng):
        wb = random_bits(rng, 32)
        own = codec.crc.append(random_bits(rng, 32))
        direct = make_frame(codec, wb)
        estimate = arbitrate_paths(
            codec, relay_frame=None, own_frame_bits=own, direct_frame=direct
        )
        assert estimate.path is DecodePath.DIRECT
        np.testing.assert_array_equal(estimate.payload, wb)

    def test_nothing_available_fails_gracefully(self, codec, rng):
        own = codec.crc.append(random_bits(rng, 32))
        estimate = arbitrate_paths(
            codec, relay_frame=None, own_frame_bits=own, direct_frame=None
        )
        assert estimate.path is DecodePath.FAILED
        assert estimate.payload.shape == (32,)



def _corrupt(frame_rows, rows):
    """Flip the first bit of the given rows, so their CRC no longer checks."""
    bad = frame_rows.copy()
    bad[rows, 0] ^= 1
    return bad


def _rows_on(paths, path):
    return [r for r, p in enumerate(paths) if p is path]


class TestArbitrationRows:
    """``arbitrate_paths_rows`` against the scalar ``arbitrate_paths``."""

    N_ROWS = 12

    def _case(self, codec, rng, *, relay_bad, direct_bad, noise=0.0):
        """Relay batch, own frames, partner payloads and direct LLR rows.

        ``relay_bad`` and ``direct_bad`` pick the rows whose relay frame
        or overheard direct frame fails its CRC. The direct LLRs are the
        noise-free demodulation of the (possibly corrupted) partner frame
        plus ``noise`` times a standard normal.
        """
        shape = (self.N_ROWS, codec.payload_bits)
        own = codec.crc.append_rows(rng.integers(0, 2, shape, dtype=np.uint8))
        partner = rng.integers(0, 2, shape, dtype=np.uint8)
        partner_frames = codec.crc.append_rows(partner)
        relay_bits = _corrupt(np.bitwise_xor(own, partner_frames), relay_bad)
        relay = DecodedFrameBatch(
            payload=relay_bits[:, : -codec.crc.n_bits],
            frame_bits=relay_bits,
            crc_ok=codec.crc.check_rows(relay_bits),
        )
        symbols = codec.encode_frame_rows(_corrupt(partner_frames, direct_bad))
        llrs = codec.demodulate_rows(symbols, 1.0, 1.0)
        llrs = llrs + noise * rng.standard_normal(llrs.shape)
        return relay, own, partner, llrs

    def _arbitrate(self, codec, relay, own, direct_llrs, partner):
        """Batched arbitration, checked row by row against the scalar one.

        ``partner`` gives the partner payloads whose frames the batched
        decoder takes as its ``sent`` hint; it is ``None`` exactly when
        ``direct_llrs`` is. Returns the batched estimates and the scalar
        decode path per row.
        """
        partner_frames = None if partner is None else codec.crc.append_rows(partner)
        rows = arbitrate_paths_rows(
            codec,
            relay_frames=relay,
            own_frame_rows=own,
            direct_llr_rows=direct_llrs,
            partner_frame_rows=partner_frames,
        )
        assert rows.payload.shape == (len(relay), codec.payload_bits)
        paths = []
        for r in range(len(relay)):
            direct = None if direct_llrs is None else codec.decode_llrs(direct_llrs[r])
            scalar = arbitrate_paths(
                codec,
                relay_frame=relay.frame(r),
                own_frame_bits=own[r],
                direct_frame=direct,
            )
            np.testing.assert_array_equal(rows.payload[r], scalar.payload)
            assert bool(rows.crc_ok[r]) == scalar.crc_ok
            paths.append(scalar.path)
        return rows, paths

    def test_relay_verified(self, codec, rng):
        # Every direct frame fails: a verified relay row must still win.
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=[], direct_bad=slice(None)
        )
        rows, paths = self._arbitrate(codec, relay, own, llrs, partner)
        assert paths == [DecodePath.RELAY] * self.N_ROWS
        np.testing.assert_array_equal(rows.payload, partner)

    def test_relay_failed_direct_verified(self, codec, rng):
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=[0, 3, 4, 9], direct_bad=[]
        )
        rows, paths = self._arbitrate(codec, relay, own, llrs, partner)
        assert _rows_on(paths, DecodePath.DIRECT) == [0, 3, 4, 9]
        assert rows.crc_ok.all()
        np.testing.assert_array_equal(rows.payload, partner)

    def test_both_failed(self, codec, rng):
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=[1, 2, 7], direct_bad=[2, 5, 7]
        )
        # The corrupted direct rows decode to frames other than the hint.
        rows, paths = self._arbitrate(codec, relay, own, llrs, partner)
        assert _rows_on(paths, DecodePath.FAILED) == [2, 7]
        assert _rows_on(paths, DecodePath.DIRECT) == [1]
        np.testing.assert_array_equal(np.flatnonzero(~rows.crc_ok), [2, 7])

    def test_no_direct_path(self, codec, rng):
        relay, own, _, _ = self._case(codec, rng, relay_bad=[4, 6], direct_bad=[])
        rows, paths = self._arbitrate(codec, relay, own, None, None)
        assert _rows_on(paths, DecodePath.FAILED) == [4, 6]
        np.testing.assert_array_equal(np.flatnonzero(~rows.crc_ok), [4, 6])

    def test_noisy_direct_rows(self, codec, rng):
        # Noisy LLRs send direct rows through the full Viterbi recursion
        # as well as the certified shortcut. A wrong hint (payloads the
        # partner did not send) fails the certificate on every row, so
        # the ACS alone must reproduce the scalar decode.
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=slice(None, None, 2), direct_bad=[], noise=3.0
        )
        self._arbitrate(codec, relay, own, llrs, partner)
        _, paths = self._arbitrate(codec, relay, own, llrs, partner ^ 1)
        assert _rows_on(paths, DecodePath.DIRECT)
        assert _rows_on(paths, DecodePath.FAILED)

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The LLR rows and sent frames of every ``decode_llr_rows`` call."""
        calls = []
        decode = LinkCodec.decode_llr_rows

        def counting(self, coded_llr_rows, sent):
            calls.append((np.array(coded_llr_rows), sent))
            return decode(self, coded_llr_rows, sent)

        monkeypatch.setattr(LinkCodec, "decode_llr_rows", counting)
        return calls

    def test_decodes_exactly_the_failed_relay_rows(self, codec, rng, decoded):
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=[1, 5, 6, 11], direct_bad=[5]
        )
        partner_frames = codec.crc.append_rows(partner)
        arbitrate_paths_rows(
            codec,
            relay_frames=relay,
            own_frame_rows=own,
            direct_llr_rows=llrs,
            partner_frame_rows=partner_frames,
        )
        assert len(decoded) == 1
        llr_rows, sent = decoded[0]
        np.testing.assert_array_equal(llr_rows, llrs[[1, 5, 6, 11]])
        np.testing.assert_array_equal(sent, partner_frames[[1, 5, 6, 11]])

    def test_no_decode_when_every_relay_row_verifies(self, codec, rng, decoded):
        relay, own, partner, llrs = self._case(
            codec, rng, relay_bad=[], direct_bad=slice(None)
        )
        rows = arbitrate_paths_rows(
            codec,
            relay_frames=relay,
            own_frame_rows=own,
            direct_llr_rows=llrs,
            partner_frame_rows=codec.crc.append_rows(partner),
        )
        assert decoded == []
        assert rows.crc_ok.all()

    def test_direct_rows_need_the_partner_frames(self, codec, rng):
        relay, own, partner, llrs = self._case(codec, rng, relay_bad=[0], direct_bad=[])
        with pytest.raises(InvalidParameterError):
            arbitrate_paths_rows(
                codec, relay_frames=relay, own_frame_rows=own, direct_llr_rows=llrs
            )
        with pytest.raises(InvalidParameterError):
            arbitrate_paths_rows(
                codec,
                relay_frames=relay,
                own_frame_rows=own,
                partner_frame_rows=codec.crc.append_rows(partner),
            )
