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
values (the engine-module guarantee). The ``"batched"`` method realizes
``chunk`` rounds per call as a one-cell batch of the link kernel's
:class:`~repro.simulation.engine.BatchedProtocolEngine` — the engine
behind every batched campaign — and therefore produces outcomes
bitwise-identical to the ``"per-frame"`` reference loop over the
per-round :class:`~repro.simulation.engine.ProtocolEngine`; it just
amortizes the encode/decode pipeline over a chunk instead of one round.
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

__all__ = ["DEFAULT_OUTCOME_CHUNK", "OUTCOME_METHODS", "FrameOutcomeStream"]

#: Rounds realized per batched engine call. Large enough to amortize the
#: per-call pipeline setup, small enough that a lightly loaded pair does
#: not simulate far past the outcomes it actually consumes.
DEFAULT_OUTCOME_CHUNK = 64

#: Outcome realization methods: the batched production path and the
#: per-frame reference loop it must reproduce bitwise.
OUTCOME_METHODS = ("batched", "per-frame")


class FrameOutcomeStream:
    """Sequential per-round ``(success_ab, success_ba)`` outcomes of a pair.

    ``peek`` realizes (if needed) and returns the next outcome without
    consuming it — the opportunistic scheduler's channel oracle; ``take``
    consumes it. Consumption order is one-dimensional and strictly
    sequential, so which rounds a pair is served in never changes the
    outcome values, only which of them are used.
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
        if method == "per-frame":
            self._engine = ProtocolEngine(
                medium=HalfDuplexMedium(gains=gains), codec=codec, power=power
            )
            self._chunk = 1
        else:
            self._chunk = chunk or DEFAULT_OUTCOME_CHUNK
        self._gains = gains
        self._power = power
        self._codec = codec
        self._protocol = protocol
        self._method = method
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
        """Rounds simulated so far (may exceed ``consumed`` by < chunk)."""
        return len(self._success_ab)

    def _refill(self) -> None:
        start = self.realized
        if start >= self._n_slots:
            raise InvalidParameterError(
                f"outcome stream exhausted after {self._n_slots} rounds"
            )
        stop = min(start + self._chunk, self._n_slots)
        if self._method == "per-frame":
            for i in range(start, stop):
                result = self._engine.run_round(
                    self._protocol,
                    self._payloads[i, 0],
                    self._payloads[i, 1],
                    phase_streams=self._phase_streams,
                )
                self._success_ab.append(bool(result.success_a_to_b))
                self._success_ba.append(bool(result.success_b_to_a))
        else:
            gains = self._gains
            engine = BatchedProtocolEngine.for_cells(
                self._codec, gains.gab, gains.gar, gains.gbr, self._power, stop - start
            )
            batch = engine.run_rounds(
                self._protocol,
                self._payloads[start:stop, 0],
                self._payloads[start:stop, 1],
                phase_streams=spawn_cell_phase_streams(
                    self._protocol, (self._phase_streams,), stop - start
                ),
            )
            self._success_ab.extend(bool(x) for x in batch.success_a_to_b)
            self._success_ba.extend(bool(x) for x in batch.success_b_to_a)

    def peek(self) -> tuple:
        """The next outcome ``(success_ab, success_ba)``, unconsumed."""
        while self._cursor >= self.realized:
            self._refill()
        return self._success_ab[self._cursor], self._success_ba[self._cursor]

    def take(self) -> tuple:
        """Consume and return the next outcome."""
        outcome = self.peek()
        self._cursor += 1
        return outcome
