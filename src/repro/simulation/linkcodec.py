"""The link codec: CRC + convolutional code + interleaver + modulation.

One :class:`LinkCodec` instance is the shared "codebook" of the system —
every node (terminals and relay) encodes and decodes frames with the same
pipeline, mirroring the shared random codebooks of the paper's
achievability proofs::

    payload bits
      └─ CRC append              (error detection / path arbitration)
         └─ convolutional encode (zero-terminated, rate 1/n)
            └─ interleave        (whiten SIC residuals)
               └─ modulate       (BPSK or QPSK, unit energy)

Decoding inverts the pipeline from soft channel LLRs and reports CRC
validity alongside the payload estimate.

Every stage also runs batched over a leading *frames* axis (the
``*_rows`` methods, returning :class:`DecodedFrameBatch`): a batch of
``n_rounds`` frames moves through CRC, encoder, interleaver, modulator
and Viterbi decoder as one ``(n_rounds, ...)`` array per stage. Each
stage is elementwise (or a one-trellis-pass recursion) along that axis,
so row ``r`` of a batched result is bit-identical to the scalar pipeline
applied to frame ``r`` — the contract the batched protocol engine and
its per-round reference implementation are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidParameterError
from .bits import as_bit_rows, as_bits
from .convolutional import NASA_CODE, ConvolutionalCode
from .crc import CRC16_CCITT, CrcCode
from .interleaver import RandomInterleaver
from .modulation import Bpsk

__all__ = ["LinkCodec", "DecodedFrame", "DecodedFrameBatch", "default_codec"]


@dataclass(frozen=True)
class DecodedFrame:
    """Result of decoding one frame.

    Attributes
    ----------
    payload:
        Estimated payload bits (CRC stripped).
    frame_bits:
        Estimated full frame (payload + CRC), before stripping — needed by
        the relay, which re-encodes and XOR-combines whole frames.
    crc_ok:
        Whether the CRC verified.
    """

    payload: np.ndarray
    frame_bits: np.ndarray
    crc_ok: bool


@dataclass(frozen=True)
class DecodedFrameBatch:
    """Batched counterpart of :class:`DecodedFrame`.

    Attributes
    ----------
    payload:
        Estimated payload bits, shape ``(n_rounds, payload_bits)``.
    frame_bits:
        Estimated full frames (payload + CRC), ``(n_rounds, frame_bits)``.
    crc_ok:
        Per-frame CRC verdicts, boolean ``(n_rounds,)``.
    """

    payload: np.ndarray
    frame_bits: np.ndarray
    crc_ok: np.ndarray

    def __len__(self) -> int:
        return int(self.frame_bits.shape[0])

    def frame(self, index: int) -> DecodedFrame:
        """The scalar :class:`DecodedFrame` of one round."""
        return DecodedFrame(
            payload=self.payload[index],
            frame_bits=self.frame_bits[index],
            crc_ok=bool(self.crc_ok[index]),
        )


@dataclass(frozen=True)
class LinkCodec:
    """A fixed encode/decode pipeline shared by all nodes.

    Attributes
    ----------
    payload_bits:
        Payload size this codec is dimensioned for (constant per link —
        frames are fixed-length, as the relay's XOR combine requires).
    code:
        The convolutional code.
    crc:
        The CRC code (zero-init, GF(2)-linear).
    modulation:
        BPSK by default.
    interleaver_seed:
        Seed of the shared random interleaver.
    """

    payload_bits: int
    code: ConvolutionalCode = NASA_CODE
    crc: CrcCode = CRC16_CCITT
    modulation: Bpsk = field(default_factory=Bpsk)
    interleaver_seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise InvalidParameterError(
                f"payload must be at least one bit, got {self.payload_bits}"
            )

    @property
    def frame_bits(self) -> int:
        """Payload plus CRC length."""
        return self.payload_bits + self.crc.n_bits

    @property
    def coded_bits(self) -> int:
        """Coded bits per frame (after zero termination)."""
        return self.code.n_coded_bits(self.frame_bits)

    @property
    def n_symbols(self) -> int:
        """Channel symbols per frame."""
        return self.modulation.symbols_for_bits(self.coded_bits)

    @property
    def rate(self) -> float:
        """Information bits per channel symbol (payload only)."""
        return self.payload_bits / self.n_symbols

    def _interleaver(self) -> RandomInterleaver:
        return RandomInterleaver(self.interleaver_seed)

    def encode_frame_bits(self, frame_bits) -> np.ndarray:
        """Encode an already-CRC'd frame to symbols (the relay path)."""
        frame = as_bits(frame_bits)
        if frame.size != self.frame_bits:
            raise InvalidParameterError(
                f"frame must be {self.frame_bits} bits, got {frame.size}"
            )
        coded = self.code.encode(frame)
        interleaved = self._interleaver().interleave(coded)
        return self.modulation.modulate(interleaved)

    def encode(self, payload) -> np.ndarray:
        """Encode payload bits into unit-energy channel symbols."""
        bits = as_bits(payload)
        if bits.size != self.payload_bits:
            raise InvalidParameterError(
                f"payload must be {self.payload_bits} bits, got {bits.size}"
            )
        return self.encode_frame_bits(self.crc.append(bits))

    def decode_llrs(self, coded_llrs: np.ndarray) -> DecodedFrame:
        """Decode from per-coded-bit LLRs (already demodulated)."""
        llrs = np.asarray(coded_llrs, dtype=float)
        if llrs.shape != (self.coded_bits,):
            raise InvalidParameterError(
                f"expected {self.coded_bits} LLRs, got shape {llrs.shape}"
            )
        deinterleaved = self._interleaver().deinterleave(llrs)
        frame = self.code.decode(deinterleaved, self.frame_bits)
        return DecodedFrame(
            payload=self.crc.strip(frame),
            frame_bits=frame,
            crc_ok=self.crc.check(frame),
        )

    def demodulate(
        self,
        received: np.ndarray,
        complex_gain: complex,
        noise_power: float,
        *,
        amplitude: float = 1.0,
    ) -> np.ndarray:
        """Soft-demodulate a received block into coded-bit LLRs."""
        y = np.asarray(received)
        if y.shape != (self.n_symbols,):
            raise InvalidParameterError(
                f"expected {self.n_symbols} symbols, got shape {y.shape}"
            )
        llrs = self.modulation.demodulate_llr(
            y, complex_gain, noise_power, amplitude=amplitude
        )
        return llrs[: self.coded_bits]

    def decode(
        self,
        received: np.ndarray,
        complex_gain: complex,
        noise_power: float,
        *,
        amplitude: float = 1.0,
    ) -> DecodedFrame:
        """Demodulate and decode a received block in one step."""
        llrs = self.demodulate(received, complex_gain, noise_power, amplitude=amplitude)
        return self.decode_llrs(llrs)

    def encode_frame_rows(self, frame_rows) -> np.ndarray:
        """Encode a batch of already-CRC'd frames to symbols, ``(R, n_symbols)``."""
        frames = as_bit_rows(frame_rows)
        if frames.shape[1] != self.frame_bits:
            raise InvalidParameterError(
                f"frames must be {self.frame_bits} bits, got {frames.shape[1]}"
            )
        coded = self.code.encode_rows(frames)
        interleaved = self._interleaver().interleave(coded)
        return self.modulation.modulate_rows(interleaved)

    def encode_rows(self, payload_rows) -> np.ndarray:
        """Encode a batch of payloads into channel symbols, ``(R, n_symbols)``."""
        rows = as_bit_rows(payload_rows)
        if rows.shape[1] != self.payload_bits:
            raise InvalidParameterError(
                f"payloads must be {self.payload_bits} bits, got {rows.shape[1]}"
            )
        return self.encode_frame_rows(self.crc.append_rows(rows))

    def demodulate_rows(
        self,
        received_rows: np.ndarray,
        complex_gain: complex,
        noise_power: float,
        *,
        amplitude: float = 1.0,
    ) -> np.ndarray:
        """Soft-demodulate a batch of received blocks into coded-bit LLRs.

        ``complex_gain``, ``noise_power`` and ``amplitude`` are scalars
        for a single-channel batch, or ``(rounds, 1)`` per-row columns
        for a cells-fused batch where every row carries its own channel
        (the LLR expression is elementwise either way).
        """
        y = np.asarray(received_rows)
        if y.ndim != 2 or y.shape[1] != self.n_symbols:
            raise InvalidParameterError(
                f"expected (rounds, {self.n_symbols}) symbols, got shape {y.shape}"
            )
        for name, value in (
            ("complex_gain", complex_gain),
            ("noise_power", noise_power),
            ("amplitude", amplitude),
        ):
            if np.ndim(value) and np.shape(value) != (y.shape[0], 1):
                raise InvalidParameterError(
                    f"per-row {name} must be a ({y.shape[0]}, 1) column, "
                    f"got shape {np.shape(value)}"
                )
        llrs = self.modulation.demodulate_llr_rows(
            y, complex_gain, noise_power, amplitude=amplitude
        )
        return llrs[:, : self.coded_bits]

    def decode_llr_rows(self, coded_llr_rows: np.ndarray, sent) -> DecodedFrameBatch:
        """Decode a batch of frames from per-coded-bit LLR rows.

        ``sent`` gives the frames (payload + CRC) that were transmitted,
        ``(rounds, frame_bits)``. The Viterbi stage tries them as its
        certified candidates (see :meth:`ConvolutionalCode.decode_rows`),
        which only decides how many rows skip the trellis: it cannot
        change a value.
        """
        llrs = np.asarray(coded_llr_rows, dtype=float)
        if llrs.ndim != 2 or llrs.shape[1] != self.coded_bits:
            raise InvalidParameterError(
                f"expected (rounds, {self.coded_bits}) LLRs, got shape {llrs.shape}"
            )
        deinterleaved = self._interleaver().deinterleave(llrs)
        frames = self.code.decode_rows(deinterleaved, self.frame_bits, sent)
        return DecodedFrameBatch(
            payload=frames[:, : -self.crc.n_bits],
            frame_bits=frames,
            crc_ok=self.crc.check_rows(frames),
        )

    def decode_rows(
        self,
        received_rows: np.ndarray,
        complex_gain: complex,
        noise_power: float,
        *,
        amplitude: float = 1.0,
        sent,
    ) -> DecodedFrameBatch:
        """Demodulate and decode a batch of received blocks in one step.

        Accepts scalar or ``(rounds, 1)`` per-row channel parameters (see
        :meth:`demodulate_rows`); the Viterbi stage is channel-agnostic,
        so fused multi-cell batches decode in the same single trellis
        pass as single-cell ones. ``sent`` is the transmitted frame batch,
        a decoder hint that cannot change a value (see
        :meth:`decode_llr_rows`).
        """
        llrs = self.demodulate_rows(
            received_rows, complex_gain, noise_power, amplitude=amplitude
        )
        return self.decode_llr_rows(llrs, sent)


def default_codec(payload_bits: int = 128) -> LinkCodec:
    """The production configuration: CRC-16 + NASA K=7 code + BPSK."""
    return LinkCodec(payload_bits=payload_bits)
