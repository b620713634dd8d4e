"""Protocol execution engines: full exchanges over the half-duplex medium.

Runs operational decode-and-forward rounds of each protocol from
Section II-C against the Gaussian half-duplex medium of
:mod:`repro.channels.halfduplex`:

* **DT** — two point-to-point frames, no relay.
* **MABC** — joint MAC phase (relay SIC-decodes both), then a single
  network-coded (XOR) relay broadcast; terminals resolve their partner's
  frame with own-message side information.
* **TDBC** — two dedicated phases (relay *and* opposite terminal listen),
  then the XOR broadcast; terminals arbitrate between the relay path and
  their overheard direct path via CRC.
* **HBC** — the four-phase hybrid: each message is split into a dedicated
  half (TDBC-like, overheard by the partner) and a MAC half (MABC-like),
  and the relay broadcasts both XOR-combined halves.

Every round reports per-direction success, bit errors and the exact number
of channel symbols spent, so campaign goodput (bits/symbol) is directly
comparable to the analytic bounds.

Two engines share one round semantics:

* :class:`ProtocolEngine` executes **one round at a time** through the
  scalar codec pipeline over a
  :class:`~repro.channels.halfduplex.HalfDuplexMedium` — the per-round
  reference implementation and the independent oracle.
* :class:`BatchedProtocolEngine` executes **all rounds of many campaign
  grid cells at once** over a
  :class:`~repro.channels.halfduplex.FusedHalfDuplexMedium`: payloads,
  symbols, channel outputs, LLRs and frame estimates carry a leading
  ``(n_cells × rounds_per_cell, ...)`` axis, and the per-link gains and
  transmit amplitude are per-row columns, so every protocol phase is a
  handful of NumPy calls — one Viterbi ACS pass, one CRC table sweep
  and one LLR computation serving every cell that shares a codec. A
  single campaign is simply the one-cell case.

Reproducibility policy (shared by both engines, and what makes them
bit-for-bit interchangeable): a round's randomness is consumed from
*per-phase* noise streams rather than one interleaved generator. Each
protocol has a fixed phase count (:data:`PROTOCOL_PHASE_COUNTS`); phase
``p`` draws only from stream ``p``, as one contiguous standard-normal
block of shape ``(n_rounds, n_listeners, 2, n_symbols)`` per call with
the decoded listeners in alphabetical node order (see
:meth:`repro.channels.halfduplex.HalfDuplexMedium.run_phase_rows`).
Because NumPy generators fill arrays sequentially, any split of the
rounds axis — one big batch, chunks, or a per-round loop — consumes
identical values, which the equivalence tests and the ablation benchmark
assert down to the last bit of every report field.

The batched engine extends the policy **across cells** without
weakening it: every campaign grid cell keeps its own root generator
(seeded by flat cell index), its own payload stream and its own
per-phase noise streams; a fused phase carries one stream per cell
(:class:`repro.channels.halfduplex.FusedPhaseStream`) and draws each
cell's block contiguously from it. Fusing therefore changes *which
arrays the arithmetic runs over*, never *which random values a cell
consumes* — the property the fused ablation benchmark asserts.

Importance sampling keeps the same contract: a twisted-noise proposal
(:mod:`repro.simulation.sampling`) biases each cell's noise as an affine
transform applied *after* the identical per-stream standard draw, with
the exact per-row log likelihood ratio accumulated on the fused medium.
Stream spawning and consumption never change, so cells without a
sampling spec remain bitwise-identical to the pre-sampling kernel.

Wave-schedule determinism (the adaptive-round-allocation companion of
the RNG spawn policy): when a campaign runs rounds in escalating waves
(``target_rel_error`` in :class:`repro.campaign.spec.LinkSimSpec`), the
wave boundaries are a pure function of the spec —
:func:`repro.simulation.montecarlo.wave_bounds` derives them from
``n_rounds`` and ``max_rounds`` only, never from wall-clock time,
executor choice or fusion width. Each wave draws one contiguous payload
block per cell at those spec-fixed boundaries, and noise streams are
split-safe by construction, so an adaptive cell's report is as much a
pure function of the spec as a fixed-budget cell's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels.halfduplex import (
    FusedHalfDuplexMedium,
    FusedPhaseStream,
    HalfDuplexMedium,
)
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from .bits import as_bit_rows, as_bits, hamming_distance, hamming_distance_rows
from .linkcodec import LinkCodec
from .relay import sic_decode_mac, sic_decode_mac_rows, xor_forward
from .terminals import arbitrate_paths, arbitrate_paths_rows

__all__ = [
    "RoundResult",
    "RoundBatch",
    "ProtocolEngine",
    "BatchedProtocolEngine",
    "PROTOCOL_PHASE_COUNTS",
    "spawn_phase_streams",
    "spawn_cell_phase_streams",
]

#: Number of half-duplex phases — and therefore independent noise streams
#: — each protocol consumes per round. The stream-per-phase policy is what
#: lets the batched engine draw a phase's noise for every round in one
#: contiguous block while a per-round loop consumes the same values.
PROTOCOL_PHASE_COUNTS = {
    Protocol.DT: 2,
    Protocol.NAIVE4: 4,
    Protocol.MABC: 2,
    Protocol.TDBC: 3,
    Protocol.HBC: 4,
}


def spawn_phase_streams(protocol, rng: np.random.Generator) -> tuple:
    """Spawn one independent child noise stream per protocol phase."""
    if protocol not in PROTOCOL_PHASE_COUNTS:
        raise InvalidParameterError(f"unknown protocol {protocol!r}")
    return tuple(rng.spawn(PROTOCOL_PHASE_COUNTS[protocol]))


def spawn_cell_phase_streams(protocol, cell_streams, rounds_per_cell: int) -> tuple:
    """Transpose per-cell phase-stream tuples into fused per-phase streams.

    ``cell_streams`` holds one :func:`spawn_phase_streams` tuple per fused
    cell; the result is one :class:`FusedPhaseStream` per protocol phase,
    each carrying every cell's generator for that phase — the shape the
    fused medium consumes. Pure bookkeeping: no generator is advanced.
    """
    if protocol not in PROTOCOL_PHASE_COUNTS:
        raise InvalidParameterError(f"unknown protocol {protocol!r}")
    cell_streams = tuple(tuple(streams) for streams in cell_streams)
    if not cell_streams:
        raise InvalidParameterError("at least one cell required")
    expected = PROTOCOL_PHASE_COUNTS[protocol]
    for streams in cell_streams:
        if len(streams) != expected:
            raise InvalidParameterError(
                f"{protocol} needs {expected} phase streams per cell, "
                f"got {len(streams)}"
            )
    return tuple(
        FusedPhaseStream(
            streams=tuple(streams[phase] for streams in cell_streams),
            rounds_per_cell=rounds_per_cell,
        )
        for phase in range(expected)
    )


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one protocol round.

    Attributes
    ----------
    success_a_to_b / success_b_to_a:
        Whether the full payload was recovered bit-exactly (and the
        accepted estimate's CRC verified) in each direction.
    bit_errors_a_to_b / bit_errors_b_to_a:
        Payload bit errors in each direction.
    payload_bits:
        Payload size per direction in this round.
    n_symbols:
        Total channel symbols consumed by all phases.
    relay_ok:
        Whether the relay decoded everything it needed (``None`` for DT).
    """

    success_a_to_b: bool
    success_b_to_a: bool
    bit_errors_a_to_b: int
    bit_errors_b_to_a: int
    payload_bits: int
    n_symbols: int
    relay_ok: bool | None


@dataclass(frozen=True)
class RoundBatch:
    """Outcomes of a whole batch of protocol rounds.

    The batched counterpart of :class:`RoundResult`: scalar per-round
    fields become ``(n_rounds,)`` arrays, while the per-round constants
    (payload size, symbol spend) stay scalars.
    """

    success_a_to_b: np.ndarray
    success_b_to_a: np.ndarray
    bit_errors_a_to_b: np.ndarray
    bit_errors_b_to_a: np.ndarray
    payload_bits: int
    n_symbols: int
    relay_ok: np.ndarray | None

    def __len__(self) -> int:
        return int(self.success_a_to_b.shape[0])

    def round_result(self, index: int) -> RoundResult:
        """The scalar :class:`RoundResult` of one round of the batch."""
        relay_ok = None if self.relay_ok is None else bool(self.relay_ok[index])
        return RoundResult(
            success_a_to_b=bool(self.success_a_to_b[index]),
            success_b_to_a=bool(self.success_b_to_a[index]),
            bit_errors_a_to_b=int(self.bit_errors_a_to_b[index]),
            bit_errors_b_to_a=int(self.bit_errors_b_to_a[index]),
            payload_bits=self.payload_bits,
            n_symbols=self.n_symbols,
            relay_ok=relay_ok,
        )


@dataclass(frozen=True)
class _LinkEngine:
    """Shared state of the per-round and batched protocol engines.

    Attributes
    ----------
    medium:
        The half-duplex Gaussian medium (owns gains and noise): a
        :class:`HalfDuplexMedium` for the per-round engine, a
        :class:`FusedHalfDuplexMedium` for the batched one.
    codec:
        Frame pipeline for full-size payloads (DT/MABC/TDBC). HBC derives a
        half-payload codec internally.
    power:
        Per-node transmit power ``P`` (linear; a per-row column on the
        batched engine); amplitude ``sqrt(P)`` is applied to the
        unit-energy modulated symbols.
    """

    medium: HalfDuplexMedium | FusedHalfDuplexMedium
    codec: LinkCodec
    power: float | np.ndarray

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise InvalidParameterError(f"power must be positive, got {self.power}")

    @property
    def _amplitude(self) -> float:
        return float(np.sqrt(self.power))

    @property
    def _noise_power(self) -> float:
        return self.medium.noise.noise_power

    def _gain(self, node_i: str, node_j: str) -> complex:
        return self.medium.complex_gains[frozenset((node_i, node_j))]

    def _half_codec(self) -> LinkCodec:
        if self.codec.payload_bits % 2 != 0:
            raise InvalidParameterError(
                "HBC needs an even payload size to split across phases, "
                f"got {self.codec.payload_bits}"
            )
        return LinkCodec(
            payload_bits=self.codec.payload_bits // 2,
            code=self.codec.code,
            crc=self.codec.crc,
            modulation=self.codec.modulation,
            interleaver_seed=self.codec.interleaver_seed,
        )

    def _phase_streams(self, protocol, rng, phase_streams) -> tuple:
        """Resolve the per-phase noise streams of one round or batch."""
        if phase_streams is not None:
            streams = tuple(phase_streams)
            expected = PROTOCOL_PHASE_COUNTS[protocol]
            if len(streams) != expected:
                raise InvalidParameterError(
                    f"{protocol} needs {expected} phase streams, " f"got {len(streams)}"
                )
            return streams
        if rng is None:
            raise InvalidParameterError("either rng or phase_streams must be provided")
        return spawn_phase_streams(protocol, rng)


@dataclass(frozen=True)
class ProtocolEngine(_LinkEngine):
    """Executes protocol rounds one at a time — the reference pipeline.

    Each round consumes per-phase noise streams (either ``phase_streams``
    handed in by a campaign driver, or spawned from ``rng`` for standalone
    rounds) and decodes through the scalar codec path. Given the same
    streams, a loop over this engine reproduces
    :class:`BatchedProtocolEngine` outputs exactly.
    """

    def _check_payload(self, payload, codec: LinkCodec) -> np.ndarray:
        bits = as_bits(payload)
        if bits.size != codec.payload_bits:
            raise InvalidParameterError(
                f"payload must be {codec.payload_bits} bits, got {bits.size}"
            )
        return bits

    def _transit(
        self, transmissions: dict, listeners: tuple, stream: np.random.Generator
    ) -> dict:
        """Run one single-round phase; returns listener -> 1-D signal."""
        rows = {node: np.asarray(x)[None, :] for node, x in transmissions.items()}
        out = self.medium.run_phase_rows(rows, listeners, stream)
        return {node: out.signal_at(node)[0] for node in listeners}

    def _direction_result(self, sent, estimate) -> tuple:
        errors = hamming_distance(sent, estimate.payload)
        success = bool(estimate.crc_ok) and errors == 0
        return success, errors

    def run_dt_round(
        self, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """Direct transmission: ``a -> b`` then ``b -> a``."""
        codec = self.codec
        wa = self._check_payload(payload_a, codec)
        wb = self._check_payload(payload_b, codec)
        amp = self._amplitude
        s1, s2 = self._phase_streams(Protocol.DT, rng, phase_streams)

        y_b = self._transit({"a": amp * codec.encode(wa)}, ("b",), s1)["b"]
        frame_at_b = codec.decode(
            y_b, self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        y_a = self._transit({"b": amp * codec.encode(wb)}, ("a",), s2)["a"]
        frame_at_a = codec.decode(
            y_a, self._gain("a", "b"), self._noise_power, amplitude=amp
        )

        err_ab = hamming_distance(wa, frame_at_b.payload)
        err_ba = hamming_distance(wb, frame_at_a.payload)
        return RoundResult(
            success_a_to_b=frame_at_b.crc_ok and err_ab == 0,
            success_b_to_a=frame_at_a.crc_ok and err_ba == 0,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=2 * codec.n_symbols,
            relay_ok=None,
        )

    def run_naive4_round(
        self, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """Naive four-phase store-and-forward (Fig. 1(ii) baseline).

        The relay decodes each terminal's frame in its dedicated phase and
        re-transmits it verbatim in the next; terminals use only the relay
        re-transmission (the overheard direct receptions are deliberately
        ignored — that inefficiency is what this baseline demonstrates).
        """
        codec = self.codec
        wa = self._check_payload(payload_a, codec)
        wb = self._check_payload(payload_b, codec)
        amp = self._amplitude
        s1, s2, s3, s4 = self._phase_streams(Protocol.NAIVE4, rng, phase_streams)
        frame_a = codec.crc.append(wa)
        frame_b = codec.crc.append(wb)

        # Phase 1: a -> relay; phase 2: relay -> b.
        y_r = self._transit({"a": amp * codec.encode_frame_bits(frame_a)}, ("r",), s1)[
            "r"
        ]
        a_at_r = codec.decode(
            y_r, self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        y_b = self._transit(
            {"r": amp * codec.encode_frame_bits(a_at_r.frame_bits)}, ("b",), s2
        )["b"]
        a_at_b = codec.decode(
            y_b, self._gain("b", "r"), self._noise_power, amplitude=amp
        )

        # Phase 3: b -> relay; phase 4: relay -> a.
        y_r2 = self._transit({"b": amp * codec.encode_frame_bits(frame_b)}, ("r",), s3)[
            "r"
        ]
        b_at_r = codec.decode(
            y_r2, self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        y_a = self._transit(
            {"r": amp * codec.encode_frame_bits(b_at_r.frame_bits)}, ("a",), s4
        )["a"]
        b_at_a = codec.decode(
            y_a, self._gain("a", "r"), self._noise_power, amplitude=amp
        )

        err_ab = hamming_distance(wa, a_at_b.payload)
        err_ba = hamming_distance(wb, b_at_a.payload)
        return RoundResult(
            success_a_to_b=a_at_b.crc_ok and err_ab == 0,
            success_b_to_a=b_at_a.crc_ok and err_ba == 0,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=4 * codec.n_symbols,
            relay_ok=a_at_r.crc_ok and b_at_r.crc_ok,
        )

    def run_mabc_round(
        self, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """MABC: MAC phase into the relay, then one XOR broadcast."""
        codec = self.codec
        wa = self._check_payload(payload_a, codec)
        wb = self._check_payload(payload_b, codec)
        amp = self._amplitude
        s1, s2 = self._phase_streams(Protocol.MABC, rng, phase_streams)
        frame_a = codec.crc.append(wa)
        frame_b = codec.crc.append(wb)

        # Phase 1: simultaneous transmission; only the relay listens.
        symbols = {
            "a": amp * codec.encode_frame_bits(frame_a),
            "b": amp * codec.encode_frame_bits(frame_b),
        }
        y_r = self._transit(symbols, ("r",), s1)["r"]
        mac = sic_decode_mac(
            codec,
            y_r,
            gain_a=self._gain("a", "r"),
            gain_b=self._gain("b", "r"),
            noise_power=self._noise_power,
            amplitude=amp,
        )

        # Phase 2: relay broadcasts the XOR of its two decoded frames.
        relay_frame = xor_forward(mac.frame_a.frame_bits, mac.frame_b.frame_bits)
        out2 = self._transit(
            {"r": amp * codec.encode_frame_bits(relay_frame)}, ("a", "b"), s2
        )
        relay_at_a = codec.decode(
            out2["a"], self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        relay_at_b = codec.decode(
            out2["b"], self._gain("b", "r"), self._noise_power, amplitude=amp
        )

        est_b_at_a = arbitrate_paths(
            codec, relay_frame=relay_at_a, own_frame_bits=frame_a, direct_frame=None
        )
        est_a_at_b = arbitrate_paths(
            codec, relay_frame=relay_at_b, own_frame_bits=frame_b, direct_frame=None
        )
        success_ab, err_ab = self._direction_result(wa, est_a_at_b)
        success_ba, err_ba = self._direction_result(wb, est_b_at_a)
        return RoundResult(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=2 * codec.n_symbols,
            relay_ok=mac.both_ok,
        )

    def run_tdbc_round(
        self, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """TDBC: dedicated phases (overheard by the partner), XOR broadcast."""
        codec = self.codec
        wa = self._check_payload(payload_a, codec)
        wb = self._check_payload(payload_b, codec)
        amp = self._amplitude
        s1, s2, s3 = self._phase_streams(Protocol.TDBC, rng, phase_streams)
        frame_a = codec.crc.append(wa)
        frame_b = codec.crc.append(wb)

        # Phase 1: a transmits; b and the relay listen.
        out1 = self._transit(
            {"a": amp * codec.encode_frame_bits(frame_a)}, ("b", "r"), s1
        )
        a_at_r = codec.decode(
            out1["r"], self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        a_at_b_direct = codec.decode(
            out1["b"], self._gain("a", "b"), self._noise_power, amplitude=amp
        )

        # Phase 2: b transmits; a and the relay listen.
        out2 = self._transit(
            {"b": amp * codec.encode_frame_bits(frame_b)}, ("a", "r"), s2
        )
        b_at_r = codec.decode(
            out2["r"], self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        b_at_a_direct = codec.decode(
            out2["a"], self._gain("a", "b"), self._noise_power, amplitude=amp
        )

        # Phase 3: relay broadcasts the XOR of its two frame estimates.
        relay_frame = xor_forward(a_at_r.frame_bits, b_at_r.frame_bits)
        out3 = self._transit(
            {"r": amp * codec.encode_frame_bits(relay_frame)}, ("a", "b"), s3
        )
        relay_at_a = codec.decode(
            out3["a"], self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        relay_at_b = codec.decode(
            out3["b"], self._gain("b", "r"), self._noise_power, amplitude=amp
        )

        est_b_at_a = arbitrate_paths(
            codec,
            relay_frame=relay_at_a,
            own_frame_bits=frame_a,
            direct_frame=b_at_a_direct,
        )
        est_a_at_b = arbitrate_paths(
            codec,
            relay_frame=relay_at_b,
            own_frame_bits=frame_b,
            direct_frame=a_at_b_direct,
        )
        success_ab, err_ab = self._direction_result(wa, est_a_at_b)
        success_ba, err_ba = self._direction_result(wb, est_b_at_a)
        return RoundResult(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=3 * codec.n_symbols,
            relay_ok=a_at_r.crc_ok and b_at_r.crc_ok,
        )

    def run_hbc_round(
        self, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """HBC: dedicated halves (overheard), MAC halves, double broadcast."""
        full = self.codec
        wa = self._check_payload(payload_a, full)
        wb = self._check_payload(payload_b, full)
        half = self._half_codec()
        amp = self._amplitude
        s1, s2, s3, s4 = self._phase_streams(Protocol.HBC, rng, phase_streams)
        k = half.payload_bits
        wa1, wa2 = wa[:k], wa[k:]
        wb1, wb2 = wb[:k], wb[k:]
        frame_a1, frame_a2 = half.crc.append(wa1), half.crc.append(wa2)
        frame_b1, frame_b2 = half.crc.append(wb1), half.crc.append(wb2)

        # Phase 1: a sends its dedicated half; b and the relay listen.
        out1 = self._transit(
            {"a": amp * half.encode_frame_bits(frame_a1)}, ("b", "r"), s1
        )
        a1_at_r = half.decode(
            out1["r"], self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        a1_at_b_direct = half.decode(
            out1["b"], self._gain("a", "b"), self._noise_power, amplitude=amp
        )

        # Phase 2: b sends its dedicated half; a and the relay listen.
        out2 = self._transit(
            {"b": amp * half.encode_frame_bits(frame_b1)}, ("a", "r"), s2
        )
        b1_at_r = half.decode(
            out2["r"], self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        b1_at_a_direct = half.decode(
            out2["a"], self._gain("a", "b"), self._noise_power, amplitude=amp
        )

        # Phase 3: MAC halves; only the relay listens.
        symbols = {
            "a": amp * half.encode_frame_bits(frame_a2),
            "b": amp * half.encode_frame_bits(frame_b2),
        }
        y_r = self._transit(symbols, ("r",), s3)["r"]
        mac = sic_decode_mac(
            half,
            y_r,
            gain_a=self._gain("a", "r"),
            gain_b=self._gain("b", "r"),
            noise_power=self._noise_power,
            amplitude=amp,
        )

        # Phase 4: relay broadcasts both XOR-combined halves back to back.
        relay_frame_1 = xor_forward(a1_at_r.frame_bits, b1_at_r.frame_bits)
        relay_frame_2 = xor_forward(mac.frame_a.frame_bits, mac.frame_b.frame_bits)
        symbols_4 = np.concatenate(
            [
                half.encode_frame_bits(relay_frame_1),
                half.encode_frame_bits(relay_frame_2),
            ],
        )
        out4 = self._transit({"r": amp * symbols_4}, ("a", "b"), s4)
        n_half = half.n_symbols

        def _decode_broadcast(node: str):
            y = out4[node]
            gain = self._gain(node, "r")
            first = half.decode(y[:n_half], gain, self._noise_power, amplitude=amp)
            second = half.decode(y[n_half:], gain, self._noise_power, amplitude=amp)
            return first, second

        relay1_at_a, relay2_at_a = _decode_broadcast("a")
        relay1_at_b, relay2_at_b = _decode_broadcast("b")

        est_b1_at_a = arbitrate_paths(
            half,
            relay_frame=relay1_at_a,
            own_frame_bits=frame_a1,
            direct_frame=b1_at_a_direct,
        )
        est_b2_at_a = arbitrate_paths(
            half, relay_frame=relay2_at_a, own_frame_bits=frame_a2, direct_frame=None
        )
        est_a1_at_b = arbitrate_paths(
            half,
            relay_frame=relay1_at_b,
            own_frame_bits=frame_b1,
            direct_frame=a1_at_b_direct,
        )
        est_a2_at_b = arbitrate_paths(
            half, relay_frame=relay2_at_b, own_frame_bits=frame_b2, direct_frame=None
        )

        err_ab = hamming_distance(wa1, est_a1_at_b.payload)
        err_ab += hamming_distance(wa2, est_a2_at_b.payload)
        err_ba = hamming_distance(wb1, est_b1_at_a.payload)
        err_ba += hamming_distance(wb2, est_b2_at_a.payload)
        success_ab = est_a1_at_b.crc_ok and est_a2_at_b.crc_ok and err_ab == 0
        success_ba = est_b1_at_a.crc_ok and est_b2_at_a.crc_ok and err_ba == 0
        relay_ok = a1_at_r.crc_ok and b1_at_r.crc_ok and mac.both_ok
        return RoundResult(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=full.payload_bits,
            n_symbols=5 * n_half,
            relay_ok=relay_ok,
        )

    def run_round(
        self, protocol, payload_a, payload_b, rng=None, *, phase_streams=None
    ) -> RoundResult:
        """Dispatch one round of the named protocol."""
        runners = {
            Protocol.DT: self.run_dt_round,
            Protocol.NAIVE4: self.run_naive4_round,
            Protocol.MABC: self.run_mabc_round,
            Protocol.TDBC: self.run_tdbc_round,
            Protocol.HBC: self.run_hbc_round,
        }
        if protocol not in runners:
            raise InvalidParameterError(f"unknown protocol {protocol!r}")
        return runners[protocol](payload_a, payload_b, rng, phase_streams=phase_streams)


@dataclass(frozen=True)
class BatchedProtocolEngine(_LinkEngine):
    """Executes every round of many grid cells at once, cells × rounds.

    The medium is a :class:`~repro.channels.halfduplex.FusedHalfDuplexMedium`
    whose per-link complex gains are ``(n_cells * rounds_per_cell, 1)``
    row columns, and ``power`` is the matching per-row column, so every
    encode, demodulate, SIC and arbitration call broadcasts each cell's
    own SNR across the fused rows axis while the trellis recursion, the
    CRC table sweep and the GF(2) encoder run once for the whole batch.
    Payload batches are ``(n_rows, payload_bits)`` arrays. Phase streams
    must be the per-phase
    :class:`~repro.channels.halfduplex.FusedPhaseStream` tuples built by
    :func:`spawn_cell_phase_streams`; they preserve the per-cell RNG
    spawn policy, and every stage is elementwise along the rows axis, so
    each cell's rows equal a per-round :class:`ProtocolEngine` loop over
    that cell's streams exactly. Build instances with :meth:`for_cells`.

    Each phase's :class:`~repro.channels.halfduplex.PhaseRows` is dropped
    as soon as its listeners are decoded, so a round batch holds at most
    one phase's complex received rows at a time — what keeps wide fused
    batches inside the campaign's memory budget.
    """

    def __post_init__(self) -> None:
        power = np.asarray(self.power, dtype=float)
        if power.ndim != 2 or power.shape[1] != 1:
            raise InvalidParameterError(
                f"power must be an (n_rows, 1) column, got shape {power.shape}"
            )
        if not isinstance(self.medium, FusedHalfDuplexMedium):
            raise InvalidParameterError("batched engine needs a FusedHalfDuplexMedium")
        if power.shape[0] != self.medium.n_rows:
            raise InvalidParameterError(
                f"power column has {power.shape[0]} rows, "
                f"medium has {self.medium.n_rows}"
            )
        if np.any(power <= 0):
            raise InvalidParameterError("power must be positive in every cell")
        object.__setattr__(self, "power", power)

    @property
    def _amplitude(self) -> np.ndarray:
        return np.sqrt(self.power)

    @classmethod
    def for_cells(
        cls,
        codec: LinkCodec,
        gab,
        gar,
        gbr,
        power,
        rounds_per_cell: int,
        *,
        sampling=None,
    ) -> "BatchedProtocolEngine":
        """Build the engine of one fused batch over concrete grid cells.

        ``gab``/``gar``/``gbr``/``power`` are per-cell vectors (scalars
        make a one-cell batch; ``power`` broadcasts); ``rounds_per_cell``
        is the batch's round count, shared by every cell. Construction is
        cheap — trellis tables are cached on the code object — so drivers
        build a fresh engine per wave. With a ``sampling``
        :class:`~repro.simulation.sampling.ImportanceSamplingSpec`, the
        medium carries the per-cell noise twist derived from the batch's
        gain/power columns and accumulates per-row log likelihood ratios
        (read them from ``engine.medium.phase_log_lrs`` after the wave).
        """
        gab = np.atleast_1d(np.asarray(gab, dtype=float))
        power = np.broadcast_to(np.asarray(power, dtype=float), gab.shape).copy()
        twist = None
        if sampling is not None:
            # The fused campaign medium is unit-noise-power by
            # construction (the default ComplexAwgn below).
            twist = sampling.cell_twist(gab, gar, gbr, power, noise_power=1.0)
        medium = FusedHalfDuplexMedium(
            gab=gab, gar=gar, gbr=gbr, rounds_per_cell=rounds_per_cell, twist=twist
        )
        power_rows = np.repeat(power, rounds_per_cell)[:, None]
        return cls(medium=medium, codec=codec, power=power_rows)

    def _check_payload_rows(self, payload_rows, codec: LinkCodec) -> np.ndarray:
        rows = as_bit_rows(payload_rows)
        if rows.shape[1] != codec.payload_bits:
            raise InvalidParameterError(
                f"payloads must be {codec.payload_bits} bits, " f"got {rows.shape[1]}"
            )
        return rows

    def _check_payload_batch(
        self, payload_rows_a, payload_rows_b, codec: LinkCodec
    ) -> tuple:
        wa = self._check_payload_rows(payload_rows_a, codec)
        wb = self._check_payload_rows(payload_rows_b, codec)
        if wa.shape[0] != wb.shape[0]:
            raise InvalidParameterError(
                f"payload batches disagree on the round count: "
                f"{wa.shape[0]} vs {wb.shape[0]}"
            )
        return wa, wb

    @staticmethod
    def _direction_rows(sent_rows, estimate) -> tuple:
        errors = hamming_distance_rows(sent_rows, estimate.payload)
        success = np.asarray(estimate.crc_ok) & (errors == 0)
        return success, errors

    def run_dt_rounds(
        self, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """Direct transmission for a whole batch of rounds."""
        codec = self.codec
        wa, wb = self._check_payload_batch(payload_rows_a, payload_rows_b, codec)
        amp = self._amplitude
        s1, s2 = self._phase_streams(Protocol.DT, None, phase_streams)

        out1 = self.medium.run_phase_rows(
            {"a": amp * codec.encode_rows(wa)}, ("b",), s1
        )
        frames_at_b = codec.decode_rows(
            out1.signal_at("b"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out1
        out2 = self.medium.run_phase_rows(
            {"b": amp * codec.encode_rows(wb)}, ("a",), s2
        )
        frames_at_a = codec.decode_rows(
            out2.signal_at("a"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out2

        err_ab = hamming_distance_rows(wa, frames_at_b.payload)
        err_ba = hamming_distance_rows(wb, frames_at_a.payload)
        return RoundBatch(
            success_a_to_b=frames_at_b.crc_ok & (err_ab == 0),
            success_b_to_a=frames_at_a.crc_ok & (err_ba == 0),
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=2 * codec.n_symbols,
            relay_ok=None,
        )

    def run_naive4_rounds(
        self, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """Naive four-phase store-and-forward for a batch of rounds."""
        codec = self.codec
        wa, wb = self._check_payload_batch(payload_rows_a, payload_rows_b, codec)
        amp = self._amplitude
        s1, s2, s3, s4 = self._phase_streams(Protocol.NAIVE4, None, phase_streams)
        frames_a = codec.crc.append_rows(wa)
        frames_b = codec.crc.append_rows(wb)

        out1 = self.medium.run_phase_rows(
            {"a": amp * codec.encode_frame_rows(frames_a)}, ("r",), s1
        )
        a_at_r = codec.decode_rows(
            out1.signal_at("r"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        del out1
        out2 = self.medium.run_phase_rows(
            {"r": amp * codec.encode_frame_rows(a_at_r.frame_bits)}, ("b",), s2
        )
        a_at_b = codec.decode_rows(
            out2.signal_at("b"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        del out2

        out3 = self.medium.run_phase_rows(
            {"b": amp * codec.encode_frame_rows(frames_b)}, ("r",), s3
        )
        b_at_r = codec.decode_rows(
            out3.signal_at("r"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        del out3
        out4 = self.medium.run_phase_rows(
            {"r": amp * codec.encode_frame_rows(b_at_r.frame_bits)}, ("a",), s4
        )
        b_at_a = codec.decode_rows(
            out4.signal_at("a"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        del out4

        err_ab = hamming_distance_rows(wa, a_at_b.payload)
        err_ba = hamming_distance_rows(wb, b_at_a.payload)
        return RoundBatch(
            success_a_to_b=a_at_b.crc_ok & (err_ab == 0),
            success_b_to_a=b_at_a.crc_ok & (err_ba == 0),
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=4 * codec.n_symbols,
            relay_ok=a_at_r.crc_ok & b_at_r.crc_ok,
        )

    def run_mabc_rounds(
        self, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """MABC for a batch of rounds: MAC phase, then one XOR broadcast."""
        codec = self.codec
        wa, wb = self._check_payload_batch(payload_rows_a, payload_rows_b, codec)
        amp = self._amplitude
        s1, s2 = self._phase_streams(Protocol.MABC, None, phase_streams)
        frames_a = codec.crc.append_rows(wa)
        frames_b = codec.crc.append_rows(wb)

        out1 = self.medium.run_phase_rows(
            {
                "a": amp * codec.encode_frame_rows(frames_a),
                "b": amp * codec.encode_frame_rows(frames_b),
            },
            ("r",),
            s1,
        )
        mac = sic_decode_mac_rows(
            codec,
            out1.signal_at("r"),
            gain_a=self._gain("a", "r"),
            gain_b=self._gain("b", "r"),
            noise_power=self._noise_power,
            amplitude=amp,
        )
        del out1

        relay_frames = np.bitwise_xor(mac.frame_a.frame_bits, mac.frame_b.frame_bits)
        out2 = self.medium.run_phase_rows(
            {"r": amp * codec.encode_frame_rows(relay_frames)}, ("a", "b"), s2
        )
        relay_at_a = codec.decode_rows(
            out2.signal_at("a"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        relay_at_b = codec.decode_rows(
            out2.signal_at("b"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        del out2

        est_b_at_a = arbitrate_paths_rows(
            codec, relay_frames=relay_at_a, own_frame_rows=frames_a, direct_frames=None
        )
        est_a_at_b = arbitrate_paths_rows(
            codec, relay_frames=relay_at_b, own_frame_rows=frames_b, direct_frames=None
        )
        success_ab, err_ab = self._direction_rows(wa, est_a_at_b)
        success_ba, err_ba = self._direction_rows(wb, est_b_at_a)
        return RoundBatch(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=2 * codec.n_symbols,
            relay_ok=mac.both_ok,
        )

    def run_tdbc_rounds(
        self, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """TDBC for a batch of rounds: overheard phases, XOR broadcast."""
        codec = self.codec
        wa, wb = self._check_payload_batch(payload_rows_a, payload_rows_b, codec)
        amp = self._amplitude
        s1, s2, s3 = self._phase_streams(Protocol.TDBC, None, phase_streams)
        frames_a = codec.crc.append_rows(wa)
        frames_b = codec.crc.append_rows(wb)

        out1 = self.medium.run_phase_rows(
            {"a": amp * codec.encode_frame_rows(frames_a)}, ("b", "r"), s1
        )
        a_at_r = codec.decode_rows(
            out1.signal_at("r"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        a_at_b_direct = codec.decode_rows(
            out1.signal_at("b"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out1

        out2 = self.medium.run_phase_rows(
            {"b": amp * codec.encode_frame_rows(frames_b)}, ("a", "r"), s2
        )
        b_at_r = codec.decode_rows(
            out2.signal_at("r"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        b_at_a_direct = codec.decode_rows(
            out2.signal_at("a"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out2

        relay_frames = np.bitwise_xor(a_at_r.frame_bits, b_at_r.frame_bits)
        out3 = self.medium.run_phase_rows(
            {"r": amp * codec.encode_frame_rows(relay_frames)}, ("a", "b"), s3
        )
        relay_at_a = codec.decode_rows(
            out3.signal_at("a"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        relay_at_b = codec.decode_rows(
            out3.signal_at("b"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        del out3

        est_b_at_a = arbitrate_paths_rows(
            codec,
            relay_frames=relay_at_a,
            own_frame_rows=frames_a,
            direct_frames=b_at_a_direct,
        )
        est_a_at_b = arbitrate_paths_rows(
            codec,
            relay_frames=relay_at_b,
            own_frame_rows=frames_b,
            direct_frames=a_at_b_direct,
        )
        success_ab, err_ab = self._direction_rows(wa, est_a_at_b)
        success_ba, err_ba = self._direction_rows(wb, est_b_at_a)
        return RoundBatch(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=codec.payload_bits,
            n_symbols=3 * codec.n_symbols,
            relay_ok=a_at_r.crc_ok & b_at_r.crc_ok,
        )

    def run_hbc_rounds(
        self, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """HBC for a batch of rounds: halves, MAC halves, double broadcast."""
        full = self.codec
        wa, wb = self._check_payload_batch(payload_rows_a, payload_rows_b, full)
        half = self._half_codec()
        amp = self._amplitude
        s1, s2, s3, s4 = self._phase_streams(Protocol.HBC, None, phase_streams)
        k = half.payload_bits
        wa1, wa2 = wa[:, :k], wa[:, k:]
        wb1, wb2 = wb[:, :k], wb[:, k:]
        frames_a1 = half.crc.append_rows(wa1)
        frames_a2 = half.crc.append_rows(wa2)
        frames_b1 = half.crc.append_rows(wb1)
        frames_b2 = half.crc.append_rows(wb2)

        out1 = self.medium.run_phase_rows(
            {"a": amp * half.encode_frame_rows(frames_a1)}, ("b", "r"), s1
        )
        a1_at_r = half.decode_rows(
            out1.signal_at("r"), self._gain("a", "r"), self._noise_power, amplitude=amp
        )
        a1_at_b_direct = half.decode_rows(
            out1.signal_at("b"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out1

        out2 = self.medium.run_phase_rows(
            {"b": amp * half.encode_frame_rows(frames_b1)}, ("a", "r"), s2
        )
        b1_at_r = half.decode_rows(
            out2.signal_at("r"), self._gain("b", "r"), self._noise_power, amplitude=amp
        )
        b1_at_a_direct = half.decode_rows(
            out2.signal_at("a"), self._gain("a", "b"), self._noise_power, amplitude=amp
        )
        del out2

        out3 = self.medium.run_phase_rows(
            {
                "a": amp * half.encode_frame_rows(frames_a2),
                "b": amp * half.encode_frame_rows(frames_b2),
            },
            ("r",),
            s3,
        )
        mac = sic_decode_mac_rows(
            half,
            out3.signal_at("r"),
            gain_a=self._gain("a", "r"),
            gain_b=self._gain("b", "r"),
            noise_power=self._noise_power,
            amplitude=amp,
        )
        del out3

        relay_frames_1 = np.bitwise_xor(a1_at_r.frame_bits, b1_at_r.frame_bits)
        relay_frames_2 = np.bitwise_xor(mac.frame_a.frame_bits, mac.frame_b.frame_bits)
        symbols_4 = np.concatenate(
            [
                half.encode_frame_rows(relay_frames_1),
                half.encode_frame_rows(relay_frames_2),
            ],
            axis=1,
        )
        out4 = self.medium.run_phase_rows({"r": amp * symbols_4}, ("a", "b"), s4)
        n_half = half.n_symbols

        def _decode_broadcast(y, node: str):
            gain = self._gain(node, "r")
            first = half.decode_rows(
                y[:, :n_half], gain, self._noise_power, amplitude=amp
            )
            second = half.decode_rows(
                y[:, n_half:], gain, self._noise_power, amplitude=amp
            )
            return first, second

        relay1_at_a, relay2_at_a = _decode_broadcast(out4.signal_at("a"), "a")
        relay1_at_b, relay2_at_b = _decode_broadcast(out4.signal_at("b"), "b")
        del out4

        est_b1_at_a = arbitrate_paths_rows(
            half,
            relay_frames=relay1_at_a,
            own_frame_rows=frames_a1,
            direct_frames=b1_at_a_direct,
        )
        est_b2_at_a = arbitrate_paths_rows(
            half, relay_frames=relay2_at_a, own_frame_rows=frames_a2, direct_frames=None
        )
        est_a1_at_b = arbitrate_paths_rows(
            half,
            relay_frames=relay1_at_b,
            own_frame_rows=frames_b1,
            direct_frames=a1_at_b_direct,
        )
        est_a2_at_b = arbitrate_paths_rows(
            half, relay_frames=relay2_at_b, own_frame_rows=frames_b2, direct_frames=None
        )

        err_ab = hamming_distance_rows(wa1, est_a1_at_b.payload)
        err_ab += hamming_distance_rows(wa2, est_a2_at_b.payload)
        err_ba = hamming_distance_rows(wb1, est_b1_at_a.payload)
        err_ba += hamming_distance_rows(wb2, est_b2_at_a.payload)
        success_ab = est_a1_at_b.crc_ok & est_a2_at_b.crc_ok & (err_ab == 0)
        success_ba = est_b1_at_a.crc_ok & est_b2_at_a.crc_ok & (err_ba == 0)
        relay_ok = a1_at_r.crc_ok & b1_at_r.crc_ok & mac.both_ok
        return RoundBatch(
            success_a_to_b=success_ab,
            success_b_to_a=success_ba,
            bit_errors_a_to_b=err_ab,
            bit_errors_b_to_a=err_ba,
            payload_bits=full.payload_bits,
            n_symbols=5 * n_half,
            relay_ok=relay_ok,
        )

    def run_rounds(
        self, protocol, payload_rows_a, payload_rows_b, *, phase_streams
    ) -> RoundBatch:
        """Dispatch a batch of rounds of the named protocol."""
        runners = {
            Protocol.DT: self.run_dt_rounds,
            Protocol.NAIVE4: self.run_naive4_rounds,
            Protocol.MABC: self.run_mabc_rounds,
            Protocol.TDBC: self.run_tdbc_rounds,
            Protocol.HBC: self.run_hbc_rounds,
        }
        if protocol not in runners:
            raise InvalidParameterError(f"unknown protocol {protocol!r}")
        return runners[protocol](
            payload_rows_a, payload_rows_b, phase_streams=phase_streams
        )
