"""Terminal-side decoding with side information.

Terminals exploit two kinds of knowledge the paper's decoders use:

* **own-message side information** — after decoding the relay's
  network-coded frame ``w_a ⊕ w_b``, a terminal XORs its own frame back
  out to obtain the partner's frame (Theorem 2's cardinality-reduction
  argument, made operational);
* **overheard side information** — in TDBC/HBC the terminal also received
  the partner's *direct* transmission in an earlier phase (the paper's
  "first/second phase side information") and can arbitrate between the
  direct estimate and the relay-path estimate using the CRCs.

The batched arbitration (:func:`arbitrate_paths_rows`) takes the
overheard frames as demodulated LLR rows, not decoded frames. It resolves
the relay path first and runs the direct-path Viterbi decode only on the
rows whose relay path failed its CRC, because a verified relay row never
reads its direct estimate. The direct link is usually the weak one,
but given the partner's sent frames the decoder's certificate still
takes a row whose few sign errors sit on low-reliability bits.
:func:`arbitrate_paths` is the per-round oracle; it decodes eagerly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .bits import xor_bits
from .crc import CrcCode
from .linkcodec import DecodedFrame, DecodedFrameBatch, LinkCodec

__all__ = [
    "DecodePath",
    "PartnerEstimate",
    "PartnerEstimateRows",
    "resolve_via_relay",
    "arbitrate_paths",
    "arbitrate_paths_rows",
]


class DecodePath(enum.Enum):
    """Which evidence produced the accepted partner estimate."""

    RELAY = "relay"
    DIRECT = "direct"
    FAILED = "failed"


@dataclass(frozen=True)
class PartnerEstimate:
    """A terminal's final estimate of the partner's payload.

    Attributes
    ----------
    payload:
        Estimated partner payload bits.
    crc_ok:
        Whether the accepted estimate passed its CRC.
    path:
        Which decoding path produced it.
    """

    payload: np.ndarray
    crc_ok: bool
    path: DecodePath


def resolve_via_relay(
    relay_frame: DecodedFrame, own_frame_bits: np.ndarray, crc: CrcCode
) -> PartnerEstimate:
    """Recover the partner's frame from the relay's XOR broadcast.

    ``partner = relay_estimate ⊕ own`` (both CRC-protected frames); the
    result's CRC is then checked — by linearity it verifies exactly when
    the relay estimate is consistent with a valid partner frame.
    """
    partner_frame = xor_bits(relay_frame.frame_bits, own_frame_bits)
    ok = bool(relay_frame.crc_ok) and crc.check(partner_frame)
    return PartnerEstimate(
        payload=crc.strip(partner_frame),
        crc_ok=ok,
        path=DecodePath.RELAY if ok else DecodePath.FAILED,
    )


def arbitrate_paths(
    codec: LinkCodec,
    *,
    relay_frame: DecodedFrame | None,
    own_frame_bits: np.ndarray,
    direct_frame: DecodedFrame | None,
) -> PartnerEstimate:
    """Combine relay-path and direct-path evidence into one estimate.

    Preference order:

    1. relay path with verified CRC (benefits from the relay's better
       channel — the regime the protocols are designed for),
    2. direct path with verified CRC (the overheard side information),
    3. otherwise, the relay-path estimate flagged as failed (or the direct
       one if no relay evidence exists at all).
    """
    relay_estimate = None
    if relay_frame is not None:
        relay_estimate = resolve_via_relay(relay_frame, own_frame_bits, codec.crc)
        if relay_estimate.crc_ok:
            return relay_estimate
    if direct_frame is not None and direct_frame.crc_ok:
        return PartnerEstimate(
            payload=direct_frame.payload,
            crc_ok=True,
            path=DecodePath.DIRECT,
        )
    if relay_estimate is not None:
        return relay_estimate
    if direct_frame is not None:
        return PartnerEstimate(
            payload=direct_frame.payload,
            crc_ok=False,
            path=DecodePath.FAILED,
        )
    return PartnerEstimate(
        payload=np.zeros(codec.payload_bits, dtype=np.uint8),
        crc_ok=False,
        path=DecodePath.FAILED,
    )


@dataclass(frozen=True)
class PartnerEstimateRows:
    """Batched partner estimates: one :class:`PartnerEstimate` per round.

    Attributes
    ----------
    payload:
        Accepted partner payload bits, shape ``(n_rounds, payload_bits)``.
    crc_ok:
        Whether each round's accepted estimate passed its CRC, ``(n_rounds,)``.
    """

    payload: np.ndarray
    crc_ok: np.ndarray


def arbitrate_paths_rows(
    codec: LinkCodec,
    *,
    relay_frames: DecodedFrameBatch,
    own_frame_rows: np.ndarray,
    direct_llr_rows: np.ndarray | None = None,
    partner_frame_rows: np.ndarray | None = None,
) -> PartnerEstimateRows:
    """Batched :func:`arbitrate_paths` over a rounds axis.

    Applies the same preference order per round: a CRC-verified relay
    resolution wins, then a CRC-verified direct estimate, and otherwise
    the relay-path estimate is kept but flagged failed. The overheard
    direct path arrives as demodulated coded-bit LLR rows
    (``direct_llr_rows``; omitted when the protocol has no direct
    phase) and is decoded here, on only the rows whose relay path
    failed: a verified relay row never reads its direct estimate, so its
    Viterbi pass is skipped. Row ``r`` of :meth:`LinkCodec.decode_llr_rows`
    equals the decode of that row alone, so row ``r`` of the result
    equals the scalar arbitration of round ``r``. ``partner_frame_rows``
    gives the frames the partner sent on the direct path and is required
    with ``direct_llr_rows``; the failed rows' frames go to the decoder
    as its ``sent`` hint, which decides only how many rows skip the
    trellis and cannot change a value.
    """
    if (direct_llr_rows is None) != (partner_frame_rows is None):
        raise InvalidParameterError(
            "direct_llr_rows and partner_frame_rows go together"
        )
    crc = codec.crc
    partner_rows = np.bitwise_xor(relay_frames.frame_bits, own_frame_rows)
    crc_ok = relay_frames.crc_ok & crc.check_rows(partner_rows)
    payload = partner_rows[:, : -crc.n_bits]
    failed = np.flatnonzero(~crc_ok)
    if direct_llr_rows is not None and failed.size:
        direct = codec.decode_llr_rows(
            direct_llr_rows[failed], partner_frame_rows[failed]
        )
        payload[failed[direct.crc_ok]] = direct.payload[direct.crc_ok]
        crc_ok[failed] = direct.crc_ok
    return PartnerEstimateRows(payload=payload, crc_ok=crc_ok)
