"""Half-duplex shared-medium simulator.

Section II-A of the paper gives the half-duplex channel model: each node
``i`` has input alphabet ``X_i ∪ {∅}`` and output alphabet ``Y_i ∪ {∅}``
where ``∅`` marks "no input/no output", and **a node may not transmit and
receive at the same time** (``X_i = ∅`` iff ``Y_i ≠ ∅``). This module
implements that medium for the Gaussian case: in each phase, a set of nodes
transmits and every silent node receives the superposition of all
transmissions weighted by the pairwise complex gains, plus unit-power AWGN.

The returned :class:`PhaseOutput` uses ``None`` as the ``∅`` symbol: a
transmitting node's received entry is ``None``, faithfully encoding the
half-duplex constraint rather than silently handing transmitters a copy of
the channel output.

Row-batched phases
------------------
:meth:`HalfDuplexMedium.run_phase_rows` executes the *same* phase of
many independent protocol rounds in one call: transmissions carry a
leading rounds axis, and only the listeners named by the caller receive
signals. Its noise draws follow the reproducibility policy of the link
simulation kernel: one contiguous standard-normal draw of shape
``(n_rounds, n_listeners, 2, n_symbols)`` per call — listeners in the
caller's (by convention alphabetical) order, the real parts of a round's
noise immediately followed by its imaginary parts. Because NumPy
generators fill output arrays sequentially in C order, splitting the
rounds axis across any number of calls on the same ``Generator``
consumes exactly the same values. The per-round reference engine
(:class:`repro.simulation.engine.ProtocolEngine`) runs every phase
through it one round at a time; this medium is the oracle's.

Fused phases
------------
:class:`FusedHalfDuplexMedium` is the medium of the batched engine
(:class:`repro.simulation.engine.BatchedProtocolEngine`): it runs the
same phase of *many grid cells* at once — a single campaign is the
one-cell case. Row ``c * rounds_per_cell + r`` of every array is round
``r`` of cell ``c``, and each link's complex gain is a per-row column so
the superposition broadcasts every cell's own channel. Noise keeps the
per-cell spawn policy of the campaign engine: a fused phase consumes a
:class:`FusedPhaseStream` carrying one generator per cell, and each
cell's block is drawn contiguously from *its* stream — exactly the draw
:meth:`HalfDuplexMedium.run_phase_rows` makes for that cell — so fused
campaigns are bitwise-identical to the per-round reference, cell by
cell.

An optional importance-sampling ``twist``
(:class:`repro.simulation.sampling.NoiseTwist`) biases the fused noise
*after* that identical standard draw — an affine per-cell transform
whose exact per-row log likelihood ratio accumulates on the medium —
so rare-event FER campaigns reweight instead of re-draw, and the RNG
spawn/consumption contract above survives untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import HalfDuplexViolationError, InvalidParameterError
from .awgn import ComplexAwgn
from .gains import LinkGains

__all__ = [
    "HalfDuplexMedium",
    "FusedHalfDuplexMedium",
    "FusedPhaseStream",
    "PhaseOutput",
    "PhaseRows",
    "link_amplitudes",
]

_NODES = ("a", "b", "r")

_LINKS = (("a", "b"), ("a", "r"), ("b", "r"))


def link_amplitudes(
    gains: LinkGains,
    rng: np.random.Generator | None = None,
    *,
    random_phases: bool = False,
) -> dict[frozenset, complex]:
    """Lift power gains ``G_ij`` to complex amplitudes ``g_ij``.

    With ``random_phases=False`` the amplitudes are the positive square
    roots (a coherent, phase-aligned world — the usual choice when nodes
    have full CSI, as the paper assumes). With ``random_phases=True`` each
    link gets an independent uniform phase, drawn once (quasi-static) from
    ``rng``; reciprocity is preserved because phases attach to links.
    """
    phases = {}
    for pair in _LINKS:
        if random_phases:
            if rng is None:
                raise InvalidParameterError("rng required when random_phases=True")
            phases[frozenset(pair)] = float(rng.uniform(0.0, 2.0 * np.pi))
        else:
            phases[frozenset(pair)] = 0.0
    return {
        frozenset(pair): np.sqrt(gains.gain(*pair))
        * np.exp(1j * phases[frozenset(pair)])
        for pair in _LINKS
    }


@dataclass(frozen=True)
class PhaseOutput:
    """Received signals of one phase.

    Attributes
    ----------
    received:
        Mapping node -> complex sample vector for listeners, ``None`` (the
        ``∅`` symbol) for transmitters.
    transmitters:
        The nodes that transmitted during the phase.
    """

    received: dict
    transmitters: frozenset

    def signal_at(self, node: str) -> np.ndarray:
        """The received vector at ``node``; raises if the node transmitted."""
        if node in self.transmitters:
            raise HalfDuplexViolationError(
                f"node {node!r} transmitted in this phase; it has no received signal"
            )
        return self.received[node]


@dataclass(frozen=True)
class PhaseRows:
    """Received signals of one phase run over a batch of rounds.

    Attributes
    ----------
    received:
        Mapping listener node -> complex ``(n_rounds, n_symbols)`` array.
        Nodes that transmitted — or were not named as listeners — have no
        entry at all (the engines only materialize the outputs a protocol
        actually decodes).
    transmitters:
        The nodes that transmitted during the phase.
    """

    received: dict
    transmitters: frozenset

    def signal_at(self, node: str) -> np.ndarray:
        """The received rows at ``node``; raises if the node transmitted."""
        if node in self.transmitters:
            raise HalfDuplexViolationError(
                f"node {node!r} transmitted in this phase; it has no received signal"
            )
        return self.received[node]


@dataclass(frozen=True)
class FusedPhaseStream:
    """Per-cell noise streams of one protocol phase of a fused batch.

    The (cells × rounds)-fused engine runs one phase of many independent
    per-cell campaigns in a single call. Bitwise identity with the
    per-cell path requires each cell's noise to come from *its own* phase
    stream (campaign cells are independently seeded by flat grid index),
    so a fused phase carries one generator per cell;
    :meth:`FusedHalfDuplexMedium.run_phase_rows` draws each cell's block
    contiguously from its stream and stacks the blocks along the fused
    rows axis.
    """

    streams: tuple
    rounds_per_cell: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", tuple(self.streams))
        if not self.streams:
            raise InvalidParameterError("at least one cell stream required")
        if self.rounds_per_cell < 1:
            raise InvalidParameterError(
                f"need at least one round per cell, got {self.rounds_per_cell}"
            )

    @property
    def n_cells(self) -> int:
        """Number of grid cells fused into the batch."""
        return len(self.streams)


def _combine_received(draws, listeners, transmissions: dict, complex_gains) -> dict:
    """Listener superposition: noise draws plus gain-weighted transmissions.

    ``draws`` is the phase's ``(n_rows, n_listeners, 2, n_symbols)``
    standard-normal block; each listener's output is its complex noise
    plus every transmission weighted by the link gain (scalar for the
    per-cell medium, a per-row column for the fused one). Shared by both
    media's row-batched phase runners so the received-signal arithmetic —
    the heart of the fused-vs-reference bitwise-identity invariant —
    exists exactly once.

    Once computed, a listener's complex output is copied over its own
    noise columns (exactly ``2 * n_symbols`` floats per row, never read
    again), so a phase's outputs take no memory beyond its draws. The
    copy is exact, so the values do not depend on where they live.
    """
    received: dict = {}
    n_rows, _, _, n_symbols = draws.shape
    for li, node in enumerate(listeners):
        y = draws[:, li, 0, :] + 1j * draws[:, li, 1, :]
        for tx, x in transmissions.items():
            gain = complex_gains[frozenset((tx, node))]
            y = y + gain * np.asarray(x)
        out = draws[:, li].reshape(n_rows, 2 * n_symbols).view(complex)
        out[...] = y
        received[node] = out
    return received


def _validate_phase_nodes(transmissions: dict, listeners) -> tuple:
    """Transmitter/listener validation shared by both media's phase runners."""
    for node in transmissions:
        if node not in _NODES:
            raise InvalidParameterError(f"unknown node {node!r}; nodes are {_NODES}")
        if transmissions[node] is None:
            raise HalfDuplexViolationError(
                f"node {node!r} listed as transmitter but supplied no signal"
            )
    tx_nodes = frozenset(transmissions)
    if not tx_nodes:
        raise InvalidParameterError("at least one node must transmit in a phase")
    listeners = tuple(listeners)
    if not listeners:
        raise InvalidParameterError("at least one listener required")
    for node in listeners:
        if node not in _NODES:
            raise InvalidParameterError(f"unknown node {node!r}; nodes are {_NODES}")
        if node in tx_nodes:
            raise HalfDuplexViolationError(
                f"node {node!r} cannot transmit and listen in the same phase"
            )
    shapes = {np.asarray(x).shape for x in transmissions.values()}
    if len(shapes) != 1:
        raise InvalidParameterError(
            f"simultaneous transmissions must share a shape, got {shapes}"
        )
    (shape,) = shapes
    if len(shape) != 2:
        raise InvalidParameterError(
            f"batched transmissions must be (rounds, symbols), got shape {shape}"
        )
    return tx_nodes, listeners, shape


@dataclass
class HalfDuplexMedium:
    """A three-node half-duplex Gaussian broadcast medium.

    Attributes
    ----------
    gains:
        Power gains of the three links.
    noise:
        Noise source at every listener (unit power by default, matching the
        paper's normalization).
    complex_gains:
        Optional explicit complex amplitudes per link; derived coherently
        from ``gains`` when omitted.
    """

    gains: LinkGains
    noise: ComplexAwgn = field(default_factory=ComplexAwgn)
    complex_gains: dict | None = None

    def __post_init__(self) -> None:
        if self.complex_gains is None:
            self.complex_gains = link_amplitudes(self.gains)
        for pair in _LINKS:
            key = frozenset(pair)
            if key not in self.complex_gains:
                raise InvalidParameterError(
                    f"missing complex gain for link {sorted(pair)}"
                )
            amplitude = abs(self.complex_gains[key]) ** 2
            expected = self.gains.gain(*pair)
            if abs(amplitude - expected) > 1e-6 * max(1.0, expected):
                raise InvalidParameterError(
                    f"complex gain for {sorted(pair)} has power {amplitude}, "
                    f"inconsistent with G={expected}"
                )

    def run_phase(self, transmissions: dict, rng: np.random.Generator) -> PhaseOutput:
        """Execute one phase.

        Parameters
        ----------
        transmissions:
            Mapping node -> complex symbol vector for every transmitting
            node. All vectors must share a length. Nodes absent from the
            mapping are listeners.
        rng:
            Random generator for the noise draws.

        Returns
        -------
        PhaseOutput
            Received vectors at all listeners; ``None`` at transmitters.

        Raises
        ------
        HalfDuplexViolationError
            If a node appears as transmitter with a ``None`` payload (a
            programming error that would amount to transmitting ``∅``).
        InvalidParameterError
            For unknown nodes or mismatched block lengths.
        """
        for node in transmissions:
            if node not in _NODES:
                raise InvalidParameterError(
                    f"unknown node {node!r}; nodes are {_NODES}"
                )
            if transmissions[node] is None:
                raise HalfDuplexViolationError(
                    f"node {node!r} listed as transmitter but supplied no signal"
                )
        tx_nodes = frozenset(transmissions)
        if not tx_nodes:
            raise InvalidParameterError("at least one node must transmit in a phase")
        lengths = {np.asarray(x).shape for x in transmissions.values()}
        if len(lengths) != 1:
            raise InvalidParameterError(
                f"simultaneous transmissions must share a shape, got {lengths}"
            )
        (shape,) = lengths

        received: dict = {}
        for node in _NODES:
            if node in tx_nodes:
                received[node] = None  # the ∅ output symbol
                continue
            y = self.noise.sample(rng, shape).astype(complex)
            for tx, x in transmissions.items():
                gain = self.complex_gains[frozenset((tx, node))]
                y = y + gain * np.asarray(x)
            received[node] = y
        return PhaseOutput(received=received, transmitters=tx_nodes)

    def run_phase_rows(
        self, transmissions: dict, listeners, rng: np.random.Generator
    ) -> PhaseRows:
        """Execute one phase of a whole batch of rounds at once.

        Parameters
        ----------
        transmissions:
            Mapping node -> complex ``(n_rounds, n_symbols)`` symbol rows
            for every transmitting node (all arrays share a shape).
        listeners:
            The silent nodes whose channel outputs the caller will decode,
            in the order that fixes the noise draw (the engines always
            pass them alphabetically). Listed nodes must not
            transmit; unlisted silent nodes receive nothing.
        rng:
            Noise stream for this phase. One contiguous standard-normal
            draw of shape ``(n_rounds, n_listeners, 2, n_symbols)`` is
            consumed (see the module docstring for why that makes results
            independent of how the rounds axis is batched).
        """
        tx_nodes, listeners, shape = _validate_phase_nodes(transmissions, listeners)
        n_rounds, n_symbols = shape

        scale = np.sqrt(self.noise.noise_power / 2.0)
        draws = rng.normal(0.0, scale, size=(n_rounds, len(listeners), 2, n_symbols))
        received = _combine_received(
            draws, listeners, transmissions, self.complex_gains
        )
        return PhaseRows(received=received, transmitters=tx_nodes)


@dataclass
class FusedHalfDuplexMedium:
    """The half-duplex medium of many grid cells, fused along one rows axis.

    Where :class:`HalfDuplexMedium` carries one scalar complex gain per
    link, this medium carries one *per-row column* per link: cell ``c``'s
    coherent amplitude ``sqrt(G)`` occupies rows
    ``[c * rounds_per_cell, (c + 1) * rounds_per_cell)``, so the phase
    superposition — and every downstream demodulation — broadcasts each
    cell's own channel across its rounds. Noise draws keep the per-cell
    stream policy (see :class:`FusedPhaseStream`), which is what makes a
    fused evaluation bitwise-identical to running the cells one at a
    time through :class:`HalfDuplexMedium`.

    Attributes
    ----------
    gab / gar / gbr:
        Per-cell power gains of the three links, shape ``(n_cells,)``.
    rounds_per_cell:
        Rounds fused per cell; every array row count is
        ``n_cells * rounds_per_cell``.
    noise:
        Noise source at every listener (unit power by default).
    twist:
        Optional importance-sampling proposal
        (:class:`repro.simulation.sampling.NoiseTwist`, one
        scale/shift pair per cell). When set, every phase draws the
        *identical* standard block from the per-cell streams and then
        applies the affine twist to it, appending each row's exact log
        likelihood ratio to :attr:`phase_log_lrs` — so the RNG
        spawn/consumption policy (and therefore every untwisted cell)
        is untouched. ``None`` (the default) is the vanilla medium,
        bitwise-identical to the pre-sampling kernel.
    complex_gains:
        Derived per-link coherent amplitudes as ``(n_rows, 1)`` complex
        columns, keyed like :attr:`HalfDuplexMedium.complex_gains`.
    phase_log_lrs:
        Phase-ordered list of per-row log likelihood ratios of target
        over proposal, one ``(n_rows,)`` vector appended per phase run
        on this medium (the engine runs each protocol phase exactly
        once per batch, so the list index *is* the phase index); empty
        without a twist.
    """

    gab: np.ndarray
    gar: np.ndarray
    gbr: np.ndarray
    rounds_per_cell: int
    noise: ComplexAwgn = field(default_factory=ComplexAwgn)
    twist: object | None = None
    complex_gains: dict = field(init=False)
    phase_log_lrs: list = field(init=False)

    def __post_init__(self) -> None:
        self.gab = np.atleast_1d(np.asarray(self.gab, dtype=float))
        self.gar = np.atleast_1d(np.asarray(self.gar, dtype=float))
        self.gbr = np.atleast_1d(np.asarray(self.gbr, dtype=float))
        if not (self.gab.shape == self.gar.shape == self.gbr.shape):
            raise InvalidParameterError(
                f"mismatched per-cell gain shapes: {self.gab.shape}, "
                f"{self.gar.shape}, {self.gbr.shape}"
            )
        if self.gab.ndim != 1 or self.gab.size < 1:
            raise InvalidParameterError("per-cell gains must be a non-empty vector")
        if self.rounds_per_cell < 1:
            raise InvalidParameterError(
                f"need at least one round per cell, got {self.rounds_per_cell}"
            )
        for name, values in (("gab", self.gab), ("gar", self.gar), ("gbr", self.gbr)):
            if np.any(values < 0):
                raise InvalidParameterError(f"negative power gain in {name}")
        # Per-row coherent amplitudes: cell c's sqrt(G) repeated over its
        # rounds, as a complex column so the engine's gain arithmetic is
        # the scalar path's, elementwise.
        per_link = {
            frozenset(("a", "b")): self.gab,
            frozenset(("a", "r")): self.gar,
            frozenset(("b", "r")): self.gbr,
        }
        self.complex_gains = {
            key: np.repeat(np.sqrt(values), self.rounds_per_cell).astype(complex)[
                :, None
            ]
            for key, values in per_link.items()
        }
        if self.twist is not None and getattr(self.twist, "n_cells", None) != (
            self.gab.shape[0]
        ):
            raise InvalidParameterError(
                f"noise twist covers {getattr(self.twist, 'n_cells', '?')} cells, "
                f"medium has {self.gab.shape[0]}"
            )
        self.phase_log_lrs = []

    @property
    def n_cells(self) -> int:
        """Number of fused grid cells."""
        return int(self.gab.shape[0])

    @property
    def n_rows(self) -> int:
        """Total fused rows: ``n_cells * rounds_per_cell``."""
        return self.n_cells * self.rounds_per_cell

    def run_phase_rows(
        self, transmissions: dict, listeners, rng: FusedPhaseStream
    ) -> PhaseRows:
        """Execute one phase of every fused cell's batch of rounds at once.

        The interface of :meth:`HalfDuplexMedium.run_phase_rows` with two
        differences: arrays are ``(n_cells * rounds_per_cell, n_symbols)``
        and ``rng`` is the phase's :class:`FusedPhaseStream`. Cell ``c``'s
        noise block — shape ``(rounds_per_cell, n_listeners, 2,
        n_symbols)``, the exact draw the per-cell medium makes — comes
        contiguously from stream ``c``, so any split of the rounds axis
        into consecutive fused calls consumes identical values per cell.
        """
        if not isinstance(rng, FusedPhaseStream):
            raise InvalidParameterError(
                "fused phases consume a FusedPhaseStream (one generator per cell)"
            )
        if rng.n_cells != self.n_cells or rng.rounds_per_cell != self.rounds_per_cell:
            raise InvalidParameterError(
                f"phase stream covers {rng.n_cells} cells x {rng.rounds_per_cell} "
                f"rounds, medium is {self.n_cells} x {self.rounds_per_cell}"
            )
        tx_nodes, listeners, shape = _validate_phase_nodes(transmissions, listeners)
        n_rows, n_symbols = shape
        if n_rows != self.n_rows:
            raise InvalidParameterError(
                f"expected {self.n_rows} fused rows "
                f"({self.n_cells} cells x {self.rounds_per_cell} rounds), "
                f"got {n_rows}"
            )

        scale = np.sqrt(self.noise.noise_power / 2.0)
        rounds = self.rounds_per_cell
        draws = np.empty((self.n_cells, rounds, len(listeners), 2, n_symbols))
        for cell, stream in enumerate(rng.streams):
            # One contiguous draw per cell from its own stream — the same
            # call (and therefore the same values) as the per-cell path.
            draws[cell] = stream.normal(
                0.0, scale, size=(rounds, len(listeners), 2, n_symbols)
            )
        if self.twist is not None:
            # Importance sampling twists the block *after* the identical
            # standard draw, so stream consumption (and every untwisted
            # cell) is byte-for-byte what the vanilla medium does.
            signs = None
            if self.twist.needs_signs:
                # Noiseless in-phase aggregate per listener — the
                # mean-shift direction that pushes each symbol toward
                # its decision boundary.
                signs = np.empty((n_rows, len(listeners), n_symbols))
                for li, node in enumerate(listeners):
                    clean = np.zeros((n_rows, n_symbols))
                    for tx, x in transmissions.items():
                        gain = self.complex_gains[frozenset((tx, node))]
                        clean = clean + np.real(gain * np.asarray(x))
                    signs[:, li, :] = np.sign(clean)
                signs = signs.reshape(
                    self.n_cells, rounds, len(listeners), n_symbols
                )
            draws, log_lr = self.twist.apply(draws, scale, signs)
            self.phase_log_lrs.append(log_lr.reshape(-1))
        draws = draws.reshape(n_rows, len(listeners), 2, n_symbols)
        received = _combine_received(
            draws, listeners, transmissions, self.complex_gains
        )
        return PhaseRows(received=received, transmitters=tx_nodes)
