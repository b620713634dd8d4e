"""Pre-seeded per-pair streams of frame outcomes from the link kernel.

A :class:`FrameOutcomeStream` turns the link-level simulation kernel
into a sequential oracle for the event layer: outcome ``i`` answers "do
the two directions of this pair's *i*-th served protocol round decode?".
It follows the RNG spawn policy of :mod:`repro.simulation.montecarlo`
exactly:

* the pair's generator spawns ``(payload stream, noise stream)``;
* **all** payloads are drawn up front as one contiguous
  ``(n_slots, 2, payload_bits)`` integer block — the draw boundary is
  spec-fixed, never dependent on how many outcomes the scheduler ends up
  consuming;
* the noise stream spawns one child per protocol phase
  (:func:`repro.simulation.engine.spawn_phase_streams`), and noise is
  realized lazily as outcomes are demanded.

Because each phase's noise is consumed as contiguous blocks of the same
per-phase streams, *any* split of the rounds axis yields identical
values (the engine-module guarantee), and so does any grouping of
streams into one engine call: a stream's rows draw only from its own
phase streams. The ``"batched"`` method uses that: a batched stream
never realizes outcomes itself. When its realized outcomes run out,
:meth:`FrameOutcomeStream.peek` raises :class:`OutcomesPending` (an
:class:`~repro.traffic.events.EventParked`, so the event loop parks the
slot that asked), and :func:`realize_chunks` realizes the next ``chunk``
rounds of every pending stream — every pair, offered load and cell of a
traffic batch — in fused
:class:`~repro.simulation.engine.BatchedProtocolEngine` calls, the
engine behind every batched campaign. The ``"per-frame"`` method is the
reference: it runs one per-round
:class:`~repro.simulation.engine.ProtocolEngine` round per outcome, and
the two produce bitwise-identical outcomes.
``benchmarks/bench_ablation_traffic.py`` asserts both the equality and
the speedup.
"""

from __future__ import annotations

import numpy as np

from ..channels.gains import LinkGains
from ..channels.halfduplex import HalfDuplexMedium
from ..exceptions import InvalidParameterError
from ..simulation.engine import (
    BatchedProtocolEngine,
    ProtocolEngine,
    spawn_cell_phase_streams,
    spawn_phase_streams,
)
from ..simulation.montecarlo import DEFAULT_FUSED_ROWS
from .events import EventParked

__all__ = [
    "DEFAULT_OUTCOME_CHUNK",
    "OUTCOME_METHODS",
    "FrameOutcomeStream",
    "OutcomesPending",
    "realize_chunks",
]

#: Rounds realized per stream and refill. Fusing every pending stream of
#: a batch into one engine call keeps small chunks cheap, and a small
#: chunk keeps a lightly loaded pair from simulating far past the
#: outcomes it actually consumes.
DEFAULT_OUTCOME_CHUNK = 32

#: Outcome realization methods: the batched production path and the
#: per-frame reference loop it must reproduce bitwise.
OUTCOME_METHODS = ("batched", "per-frame")


class OutcomesPending(EventParked):
    """A batched stream has no realized outcome left.

    ``stream`` is the stream to pass to :func:`realize_chunks` before the
    parked event fires again.
    """

    def __init__(self, stream: FrameOutcomeStream) -> None:
        super().__init__("outcome stream needs its next chunk realized")
        self.stream = stream


class FrameOutcomeStream:
    """Sequential per-round ``(success_ab, success_ba)`` outcomes of a pair.

    ``peek`` returns the next outcome without consuming it — the
    opportunistic scheduler's channel oracle; ``take`` consumes it.
    Consumption order is one-dimensional and strictly sequential, so
    which rounds a pair is served in never changes the outcome values,
    only which of them are used. A ``"per-frame"`` stream realizes each
    round as it is asked for; a ``"batched"`` one raises
    :class:`OutcomesPending` instead, until :func:`realize_chunks` has
    realized its next chunk.
    """

    def __init__(
        self,
        protocol,
        gains: LinkGains,
        power: float,
        n_slots: int,
        rng: np.random.Generator,
        *,
        codec,
        method: str = "batched",
        chunk: int | None = None,
    ) -> None:
        if method not in OUTCOME_METHODS:
            raise InvalidParameterError(
                f"unknown outcome method {method!r}; choose from {OUTCOME_METHODS}"
            )
        if n_slots < 1:
            raise InvalidParameterError(f"need at least one slot, got {n_slots}")
        if chunk is not None and chunk < 1:
            raise InvalidParameterError(f"chunk must be positive, got {chunk}")
        payload_rng, noise_rng = rng.spawn(2)
        self._payloads = payload_rng.integers(
            0, 2, size=(n_slots, 2, codec.payload_bits), dtype=np.uint8
        )
        self._phase_streams = spawn_phase_streams(protocol, noise_rng)
        self._engine = None
        if method == "per-frame":
            self._engine = ProtocolEngine(
                medium=HalfDuplexMedium(gains=gains), codec=codec, power=power
            )
        self._chunk = chunk or DEFAULT_OUTCOME_CHUNK
        self._gains = gains
        self._power = power
        self._codec = codec
        self._protocol = protocol
        self._n_slots = int(n_slots)
        self._success_ab: list = []
        self._success_ba: list = []
        self._cursor = 0

    @property
    def consumed(self) -> int:
        """Outcomes consumed so far (= times this pair was served)."""
        return self._cursor

    @property
    def realized(self) -> int:
        """Rounds simulated so far (may exceed ``consumed`` by up to a chunk)."""
        return len(self._success_ab)

    def peek(self) -> tuple:
        """The next outcome ``(success_ab, success_ba)``, unconsumed."""
        cursor = self._cursor
        if cursor >= self.realized:
            if cursor >= self._n_slots:
                raise InvalidParameterError(
                    f"outcome stream exhausted after {self._n_slots} rounds"
                )
            if self._engine is None:
                raise OutcomesPending(self)
            result = self._engine.run_round(
                self._protocol,
                self._payloads[cursor, 0],
                self._payloads[cursor, 1],
                phase_streams=self._phase_streams,
            )
            self._success_ab.append(bool(result.success_a_to_b))
            self._success_ba.append(bool(result.success_b_to_a))
        return self._success_ab[cursor], self._success_ba[cursor]

    def take(self) -> tuple:
        """Consume and return the next outcome."""
        outcome = self.peek()
        self._cursor += 1
        return outcome


def realize_chunks(streams) -> None:
    """Realize the next chunk of every batched stream in fused engine calls.

    Streams are grouped by protocol, codec and chunk length (a fused
    batch shares one round count across its cells); each group runs as
    :meth:`BatchedProtocolEngine.for_cells` calls of at most
    :data:`~repro.simulation.montecarlo.DEFAULT_FUSED_ROWS` rows, one
    cell per stream. Each stream draws its rows from its own payload
    block and phase streams, so the outcomes do not depend on which
    streams share a call. A stream listed twice is realized once.
    """
    groups: dict = {}
    for stream in dict.fromkeys(streams):
        if stream._engine is not None:
            raise InvalidParameterError("per-frame streams realize their own rounds")
        # The last chunk of a stream may be short.
        length = min(stream._chunk, stream._n_slots - stream.realized)
        if length < 1:
            raise InvalidParameterError(
                f"outcome stream exhausted after {stream._n_slots} rounds"
            )
        key = (stream._protocol, id(stream._codec), length)
        groups.setdefault(key, []).append(stream)
    for (protocol, _, length), group in groups.items():
        per_call = max(1, DEFAULT_FUSED_ROWS // length)
        for lo in range(0, len(group), per_call):
            _realize_fused(protocol, group[lo : lo + per_call], length)


def _realize_fused(protocol, streams: list, length: int) -> None:
    """One fused engine call: the next ``length`` rounds of each stream."""
    starts = [stream.realized for stream in streams]
    payloads = np.concatenate(
        [s._payloads[start : start + length] for s, start in zip(streams, starts)]
    )
    engine = BatchedProtocolEngine.for_cells(
        streams[0]._codec,
        [stream._gains.gab for stream in streams],
        [stream._gains.gar for stream in streams],
        [stream._gains.gbr for stream in streams],
        [stream._power for stream in streams],
        length,
    )
    batch = engine.run_rounds(
        protocol,
        payloads[:, 0],
        payloads[:, 1],
        phase_streams=spawn_cell_phase_streams(
            protocol, [stream._phase_streams for stream in streams], length
        ),
    )
    rows_ab = np.reshape(batch.success_a_to_b, (len(streams), length)).tolist()
    rows_ba = np.reshape(batch.success_b_to_a, (len(streams), length)).tolist()
    for stream, row_ab, row_ba in zip(streams, rows_ab, rows_ba):
        stream._success_ab.extend(row_ab)
        stream._success_ba.extend(row_ba)
