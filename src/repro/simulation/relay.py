"""Decode-and-forward relay operations.

The relay of the paper's protocols does three things, all implemented here:

* decode a single terminal's frame from a dedicated phase (TDBC/HBC),
* decode **both** terminals from a joint multiple-access phase (MABC/HBC
  phase 3) — realized operationally with successive interference
  cancellation (SIC): decode the stronger user treating the weaker as
  noise, re-encode and subtract, then decode the weaker user cleanly,
* combine the two decoded frames into the network-coded broadcast word
  ``w_a ⊕ w_b`` (Theorem 2's group operation, on CRC-protected frames —
  valid because the CRC is GF(2)-linear, see :mod:`repro.simulation.crc`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .bits import xor_bits
from .linkcodec import DecodedFrame, DecodedFrameBatch, LinkCodec

__all__ = [
    "MacDecodingResult",
    "MacDecodingRows",
    "decode_frame",
    "sic_decode_mac",
    "sic_decode_mac_rows",
    "xor_forward",
]


def decode_frame(
    codec: LinkCodec,
    received: np.ndarray,
    complex_gain: complex,
    noise_power: float,
    amplitude: float,
) -> DecodedFrame:
    """Decode a single-transmitter phase at the relay (or any listener)."""
    return codec.decode(received, complex_gain, noise_power, amplitude=amplitude)


@dataclass(frozen=True)
class MacDecodingResult:
    """Both terminals' frames decoded from one MAC phase.

    Attributes
    ----------
    frame_a, frame_b:
        Decoded frames of terminals ``a`` and ``b``.
    decoded_first:
        Which terminal was decoded in the first SIC stage (``"a"``/``"b"``).
    """

    frame_a: DecodedFrame
    frame_b: DecodedFrame
    decoded_first: str

    @property
    def both_ok(self) -> bool:
        """Whether both CRCs verified (the relay's Theorem-2 decode event)."""
        return self.frame_a.crc_ok and self.frame_b.crc_ok


def sic_decode_mac(
    codec: LinkCodec,
    received: np.ndarray,
    *,
    gain_a: complex,
    gain_b: complex,
    noise_power: float,
    amplitude: float,
) -> MacDecodingResult:
    """Successive interference cancellation on ``y = g_a x_a + g_b x_b + z``.

    Stage 1 decodes the stronger link treating the other signal as
    additional Gaussian noise (its power adds to the demodulator's noise
    estimate); stage 2 re-encodes the stage-1 frame, subtracts its channel
    contribution, and decodes the weaker link against thermal noise only.

    This is the operational counterpart of the corner points of the MAC
    pentagon in Theorem 2; time sharing between the two decoding orders
    sweeps the dominant face.
    """
    if noise_power <= 0:
        raise InvalidParameterError(f"noise power must be positive, got {noise_power}")
    if amplitude <= 0:
        raise InvalidParameterError(f"amplitude must be positive, got {amplitude}")
    y = np.asarray(received)
    power_a = amplitude**2 * abs(gain_a) ** 2
    power_b = amplitude**2 * abs(gain_b) ** 2
    strong_is_a = power_a >= power_b
    strong_gain, weak_gain = (gain_a, gain_b) if strong_is_a else (gain_b, gain_a)
    weak_power = power_b if strong_is_a else power_a

    # Stage 1: the weaker user's signal acts as extra noise.
    strong_frame = codec.decode(
        y, strong_gain, noise_power + weak_power, amplitude=amplitude
    )
    # Stage 2: subtract the re-encoded stage-1 estimate, decode cleanly.
    reencoded = codec.encode_frame_bits(strong_frame.frame_bits)
    residual = y - amplitude * strong_gain * reencoded
    weak_frame = codec.decode(residual, weak_gain, noise_power, amplitude=amplitude)

    if strong_is_a:
        return MacDecodingResult(
            frame_a=strong_frame, frame_b=weak_frame, decoded_first="a"
        )
    return MacDecodingResult(
        frame_a=weak_frame, frame_b=strong_frame, decoded_first="b"
    )


@dataclass(frozen=True)
class MacDecodingRows:
    """Batched counterpart of :class:`MacDecodingResult`.

    Attributes
    ----------
    frame_a, frame_b:
        Decoded frame batches of terminals ``a`` and ``b``.
    decoded_first:
        Which terminal the first SIC stage decoded, one ``"a"``/``"b"``
        entry per row (the ordering is per cell).
    """

    frame_a: DecodedFrameBatch
    frame_b: DecodedFrameBatch
    decoded_first: np.ndarray

    @property
    def both_ok(self) -> np.ndarray:
        """Per-round conjunction of both CRC verdicts, boolean ``(R,)``."""
        return self.frame_a.crc_ok & self.frame_b.crc_ok


def _select_frame_rows(
    use_first: np.ndarray, first: DecodedFrameBatch, second: DecodedFrameBatch
) -> DecodedFrameBatch:
    """Row-wise selection between two decoded frame batches."""
    return DecodedFrameBatch(
        payload=np.where(use_first[:, None], first.payload, second.payload),
        frame_bits=np.where(use_first[:, None], first.frame_bits, second.frame_bits),
        crc_ok=np.where(use_first, first.crc_ok, second.crc_ok),
    )


def sic_decode_mac_rows(
    codec: LinkCodec,
    received_rows: np.ndarray,
    *,
    gain_a: np.ndarray,
    gain_b: np.ndarray,
    noise_power: float,
    amplitude: np.ndarray,
) -> MacDecodingRows:
    """Batched successive interference cancellation, one cell per row.

    :func:`sic_decode_mac` over ``(n_rows, n_symbols)`` received rows,
    with ``gain_a``/``gain_b``/``amplitude`` as ``(n_rows, 1)`` per-row
    columns (the cells-fused engine's layout). The stage ordering is
    decided per row with ``np.where`` on the same ``power_a >= power_b``
    comparison (ties decode ``a`` first), and every arithmetic
    expression matches the scalar path operation for operation — so row
    ``r`` reproduces the scalar SIC of its cell and round bit for bit.
    """
    if np.any(np.asarray(noise_power) <= 0):
        raise InvalidParameterError(f"noise power must be positive, got {noise_power}")
    if np.any(np.asarray(amplitude) <= 0):
        raise InvalidParameterError(f"amplitude must be positive, got {amplitude}")
    y = np.asarray(received_rows)
    power_a = amplitude**2 * np.abs(gain_a) ** 2
    power_b = amplitude**2 * np.abs(gain_b) ** 2
    strong_is_a = power_a >= power_b
    strong_gain = np.where(strong_is_a, gain_a, gain_b)
    weak_gain = np.where(strong_is_a, gain_b, gain_a)
    weak_power = np.where(strong_is_a, power_b, power_a)

    strong_frames = codec.decode_rows(
        y, strong_gain, noise_power + weak_power, amplitude=amplitude
    )
    reencoded = codec.encode_frame_rows(strong_frames.frame_bits)
    residual = y - amplitude * strong_gain * reencoded
    weak_frames = codec.decode_rows(
        residual, weak_gain, noise_power, amplitude=amplitude
    )

    first_is_a = np.broadcast_to(strong_is_a, (y.shape[0], 1))[:, 0]
    return MacDecodingRows(
        frame_a=_select_frame_rows(first_is_a, strong_frames, weak_frames),
        frame_b=_select_frame_rows(~first_is_a, strong_frames, weak_frames),
        decoded_first=np.where(first_is_a, "a", "b"),
    )


def xor_forward(frame_a_bits, frame_b_bits) -> np.ndarray:
    """The relay's broadcast content: bitwise XOR of the two decoded frames.

    Frames must have equal length (the codec fixes it); by CRC linearity
    the result is itself a valid CRC-protected frame, so terminals can
    verify the *combined* frame before resolving their partner's message.
    """
    return xor_bits(frame_a_bits, frame_b_bits)
