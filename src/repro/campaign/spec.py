"""Declarative campaign specifications: grids, fading draws and shards.

A :class:`CampaignSpec` describes a full evaluation grid as plain data:
the classic axes ``protocols × powers × channel geometries × fading
draws`` plus any number of named extensible axes (:class:`GridAxis`)
inserted between ``power`` and ``gains`` — e.g. a node-pair axis for
multi-pair networks or a power-policy axis for backoff studies.
Expansion is deterministic: the fading ensemble is drawn once from the
spec's seed (paired across protocols and powers, so per-realization
comparisons like "HBC dominates MABC" hold draw by draw), and every grid
cell is a pure ``(protocol, gains, power)`` triple with no hidden state
(:func:`repro.campaign.engine._grid_batches` expands the grid into unit
batches). That determinism is what makes the content-addressed result cache
(:mod:`repro.campaign.cache`) sound: the spec hash fully determines the
numbers.

Two further consequences of that determinism power distributed execution
(:mod:`repro.campaign.engine`):

* the flat C-order unit space can be partitioned into balanced contiguous
  :class:`CampaignShard` slices (``spec.shard(index, count)``) that
  independent processes evaluate without any coordination beyond a shared
  cache directory, and
* any unit range can be checkpointed as chunks whose boundaries are
  aligned to the *global* grid (:func:`chunk_ranges`), so interior chunks
  written by a shard are interchangeable with those of an unsharded run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ..channels.fading import sample_gain_ensemble
from ..channels.gains import LinkGains
from ..channels.pathloss import linear_relay_gains
from ..channels.power import NodePowers
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear

__all__ = [
    "FadingSpec",
    "LinkSimSpec",
    "TrafficSpec",
    "GridAxis",
    "CampaignSpec",
    "CampaignShard",
    "GRID_AXES",
    "AXIS_OVERRIDE_KEYS",
    "LINK_CODES",
    "LINK_CRCS",
    "LINK_MODULATIONS",
    "LINK_METRICS",
    "TRAFFIC_METRICS",
    "TRAFFIC_ARRIVALS",
    "TRAFFIC_SCHEDULERS",
    "DEFAULT_CHUNK_SIZE",
    "chunk_ranges",
]

#: Convolutional codes an operational (link-level) campaign may name.
LINK_CODES = ("nasa", "test")

#: CRC codes an operational campaign may name.
LINK_CRCS = ("crc8", "crc16-ccitt", "crc32")

#: Modulations an operational campaign may name.
LINK_MODULATIONS = ("bpsk", "qpsk")

#: Cell-value metrics a traffic (event-driven) campaign may report; each
#: requires a :class:`TrafficSpec` on the link spec.
TRAFFIC_METRICS = ("latency", "stable_throughput")

#: Cell-value metrics an operational campaign may report.
LINK_METRICS = ("goodput", "fer") + TRAFFIC_METRICS

#: Arrival processes a :class:`TrafficSpec` may name
#: (realized by :func:`repro.traffic.generators.arrival_times`).
TRAFFIC_ARRIVALS = ("poisson", "periodic", "bursty")

#: Relay scheduling disciplines a :class:`TrafficSpec` may name (kept in
#: lockstep with :data:`repro.traffic.schedulers.SCHEDULERS`).
TRAFFIC_SCHEDULERS = ("round-robin", "longest-queue", "opportunistic")

#: Canonical axis names of the classic campaign grid. Extensible axes
#: (:attr:`CampaignSpec.extra_axes`) are inserted between ``power`` and
#: ``gains``; :attr:`CampaignSpec.axes` gives the full ordered tuple.
GRID_AXES = ("protocol", "power", "gains", "draw")

#: Override keys an extensible axis value may carry. Each value of an
#: extra axis is a mapping from these keys to per-cell parameter deltas:
#:
#: * ``gain_offsets_db`` — per-link ``(ab, ar, br)`` dB offsets applied to
#:   the drawn channel gains (e.g. a node-pair axis where every pair sits
#:   at its own geometry relative to the swept base geometry);
#: * ``power_db_offset`` — a dB offset added to the grid's transmit power
#:   (e.g. a power-policy axis for finite-SNR backoff studies);
#: * ``node_powers_db`` — per-node ``(a, b, r)`` dB offsets added to the
#:   cell's transmit power, giving each node its own power (e.g. a
#:   power-allocation axis splitting a sum-power budget, arXiv:0810.2746).
#:   Cells whose accumulated offsets are present — even all-zero — take
#:   the per-node kernel path; cells without the key keep the classic
#:   scalar power, so allocation-free specs hash and evaluate as before.
AXIS_OVERRIDE_KEYS = ("gain_offsets_db", "power_db_offset", "node_powers_db")

#: Default number of flat grid cells per checkpointed chunk. Small enough
#: that an interrupted campaign loses little work, large enough that the
#: vectorized kernel still amortizes its per-call overhead.
DEFAULT_CHUNK_SIZE = 256


def chunk_ranges(start: int, stop: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Split the flat unit range ``[start, stop)`` into checkpoint chunks.

    Boundaries land on global multiples of ``chunk_size`` (not offsets from
    ``start``), so shards of the same spec produce interior chunks that are
    byte-interchangeable with an unsharded run's — only the one chunk a
    shard boundary cuts through differs. Returns ``(start, stop)`` pairs in
    grid order; empty for an empty range.
    """
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk size must be positive, got {chunk_size}")
    if start < 0 or stop < start:
        raise InvalidParameterError(f"invalid unit range [{start}, {stop})")
    if stop == start:
        return ()
    bounds = [start]
    bounds.extend(range((start // chunk_size + 1) * chunk_size, stop, chunk_size))
    bounds.append(stop)
    return tuple(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class FadingSpec:
    """Quasi-static fading ensemble parameters of a campaign.

    Attributes
    ----------
    n_draws:
        Ensemble size per channel-geometry grid point.
    seed:
        Seed of the ensemble RNG; the spec owns all randomness.
    k_factor:
        Rician K-factor (0 = Rayleigh) shared by all links.
    """

    n_draws: int
    seed: int = 0
    k_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.n_draws < 1:
            raise InvalidParameterError(f"need at least one draw, got {self.n_draws}")
        if not 0 <= self.k_factor < math.inf:
            raise InvalidParameterError(
                f"K-factor must be finite and non-negative, got {self.k_factor}"
            )

    def to_dict(self) -> dict:
        """Plain-data form for hashing and serialization."""
        return {
            "n_draws": int(self.n_draws),
            "seed": int(self.seed),
            "k_factor": float(self.k_factor),
        }


@dataclass(frozen=True)
class TrafficSpec:
    """Event-driven traffic parameters of a queueing campaign cell.

    When a :class:`LinkSimSpec` carries one of these, every grid cell
    runs the discrete-event traffic simulation of
    :func:`repro.traffic.simulator.simulate_traffic` — ``K`` terminal
    pairs sharing the relay for ``n_rounds`` slots, with spec-seeded
    arrivals, finite FIFO buffers, stop-and-wait ARQ and a named
    scheduling discipline — and the cell value is the link spec's
    traffic metric (:data:`TRAFFIC_METRICS`). All randomness descends
    from the cell's ``(seed, flat index)`` generator through a
    documented spawn tree, so traffic values keep the campaign engine's
    bitwise executor/shard/cache guarantees.

    Attributes
    ----------
    rates:
        Per-pair arrival rate in frames per slot, applied to *each*
        direction of the pair. Either one rate per pair or a single rate
        shared by all pairs.
    arrival:
        Arrival process (:data:`TRAFFIC_ARRIVALS`).
    scheduler:
        Relay scheduling discipline (:data:`TRAFFIC_SCHEDULERS`).
    buffer_frames:
        Per-flow FIFO capacity; arrivals beyond it are buffer drops.
    arq_limit:
        Stop-and-wait attempt limit per frame (1 = no retransmission).
    pair_offsets_db:
        Per-pair ``(ab, ar, br)`` dB offsets on the cell's base
        geometry — one triple per pair sharing the relay, the
        arXiv:1002.0123 multi-pair layout. The pairs live *inside* the
        cell (they contend for the same relay), unlike the analytic
        ``pair`` grid axis whose pairs are evaluated independently.
    burst_size:
        Frames per burst of the ``bursty`` arrival process (serialized
        only then).
    latency_quantile:
        The delivery-latency quantile the ``latency`` metric reports.
    offered_loads:
        Rate scale factors of the ``stable_throughput`` sweep (required
        by — and only meaningful with — that metric).
    knee_tolerance:
        Delivered/offered shortfall tolerated before a load counts as
        unstable.
    """

    rates: tuple = (0.5,)
    arrival: str = "poisson"
    scheduler: str = "round-robin"
    buffer_frames: int = 16
    arq_limit: int = 4
    pair_offsets_db: tuple = ((0.0, 0.0, 0.0),)
    burst_size: int = 4
    latency_quantile: float = 0.95
    offered_loads: tuple | None = None
    knee_tolerance: float = 0.05

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        offsets = tuple(
            tuple(float(x) for x in triple) for triple in self.pair_offsets_db
        )
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "pair_offsets_db", offsets)
        if self.offered_loads is not None:
            loads = tuple(float(s) for s in self.offered_loads)
            object.__setattr__(self, "offered_loads", loads)
        if self.arrival not in TRAFFIC_ARRIVALS:
            raise InvalidParameterError(
                f"unknown arrival kind {self.arrival!r}; "
                f"choose from {TRAFFIC_ARRIVALS}"
            )
        if self.scheduler not in TRAFFIC_SCHEDULERS:
            raise InvalidParameterError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {TRAFFIC_SCHEDULERS}"
            )
        if not offsets:
            raise InvalidParameterError("at least one pair required")
        for triple in offsets:
            if len(triple) != 3:
                raise InvalidParameterError(
                    f"a pair needs one dB offset per link (ab, ar, br), "
                    f"got {triple!r}"
                )
        if not rates or not all(math.isfinite(r) and r > 0 for r in rates):
            raise InvalidParameterError(
                f"arrival rates must be positive and finite, got {rates!r}"
            )
        if len(rates) not in (1, len(offsets)):
            raise InvalidParameterError(
                f"{len(offsets)} pairs need one shared rate or one rate "
                f"each, got {len(rates)}"
            )
        if self.buffer_frames < 1:
            raise InvalidParameterError(
                f"buffer capacity must be positive, got {self.buffer_frames}"
            )
        if self.arq_limit < 1:
            raise InvalidParameterError(
                f"ARQ attempt limit must be positive, got {self.arq_limit}"
            )
        if self.burst_size < 1:
            raise InvalidParameterError(
                f"burst size must be positive, got {self.burst_size}"
            )
        if not 0.0 < self.latency_quantile <= 1.0:
            raise InvalidParameterError(
                f"latency quantile must be in (0, 1], "
                f"got {self.latency_quantile}"
            )
        if not 0.0 <= self.knee_tolerance < 1.0:
            raise InvalidParameterError(
                f"knee tolerance must be in [0, 1), got {self.knee_tolerance}"
            )
        if self.offered_loads is not None:
            if not self.offered_loads or not all(
                math.isfinite(s) and s > 0 for s in self.offered_loads
            ):
                raise InvalidParameterError(
                    f"offered loads must be positive, finite scale factors, "
                    f"got {self.offered_loads!r}"
                )

    @property
    def n_pairs(self) -> int:
        """Number of terminal pairs sharing the relay."""
        return len(self.pair_offsets_db)

    def pair_rates(self) -> tuple:
        """Per-pair arrival rates, broadcast to one rate per pair."""
        if len(self.rates) == self.n_pairs:
            return self.rates
        return self.rates * self.n_pairs

    def to_dict(self) -> dict:
        """Plain-data form for hashing and serialization.

        The optional knobs (``burst_size``, ``latency_quantile``,
        ``offered_loads`` with its tolerance) are emitted only when they
        matter, following the serialize-only-when-set discipline: adding
        a knob later can never move the hash of a spec that does not use
        it.
        """
        data = {
            "rates": [float(r) for r in self.rates],
            "arrival": self.arrival,
            "scheduler": self.scheduler,
            "buffer_frames": int(self.buffer_frames),
            "arq_limit": int(self.arq_limit),
            "pair_offsets_db": [list(triple) for triple in self.pair_offsets_db],
        }
        if self.arrival == "bursty":
            data["burst_size"] = int(self.burst_size)
        if self.latency_quantile != 0.95:
            data["latency_quantile"] = float(self.latency_quantile)
        if self.offered_loads is not None:
            data["offered_loads"] = [float(s) for s in self.offered_loads]
            data["knee_tolerance"] = float(self.knee_tolerance)
        return data


@dataclass(frozen=True)
class LinkSimSpec:
    """Link-level simulation parameters of an *operational* campaign.

    When a :class:`CampaignSpec` carries one of these, every grid cell is
    evaluated by running the concrete decode-and-forward system
    (:func:`repro.simulation.montecarlo.simulate_protocol`) instead of the
    analytic LP kernel, and the cell value is the campaign's total
    goodput in bits per channel symbol. Cell ``i`` of the flat grid seeds
    its generator from ``(seed, i)``, so operational values — like
    analytic ones — are a pure function of the spec, which keeps every
    executor, chunking, sharding and the content-addressed cache bitwise
    interchangeable.

    Attributes
    ----------
    n_rounds:
        Protocol rounds simulated per grid cell — the fixed budget, or
        the initial wave when adaptive allocation is on.
    payload_bits:
        Payload size per direction and round.
    seed:
        Base seed of the per-cell generators.
    code / crc / modulation:
        Named codec components (:data:`LINK_CODES`, :data:`LINK_CRCS`,
        :data:`LINK_MODULATIONS`); the default is the production codec.
    metric:
        Cell value reported into the grid (:data:`LINK_METRICS`):
        ``"goodput"`` (bits/symbol, the default), ``"fer"`` (combined
        frame error rate of both directions), or — with ``traffic``
        set — ``"latency"`` (the configured delivery-latency quantile in
        slots) or ``"stable_throughput"`` (the largest sustained offered
        load in frames/slot, from the offered-load sweep).
    target_rel_error / max_rounds:
        Optional adaptive round allocation (set both or neither): cells
        run in the escalating spec-derived waves of
        :func:`repro.simulation.montecarlo.wave_bounds` and stop at the
        first boundary where the combined-FER relative standard error
        meets the target, never exceeding ``max_rounds`` rounds. The
        schedule is a pure function of these (hashed) fields, so
        adaptive cell values stay cacheable and shard-stable. All three
        optional fields serialize only when set, so pre-existing
        operational spec hashes are untouched.
    traffic:
        Optional :class:`TrafficSpec` switching the cell evaluation from
        bare link rounds to the event-driven traffic simulation
        (queues, ARQ, multi-pair scheduling); ``n_rounds`` then counts
        the slot horizon — one potential protocol round per slot.
        Required by (and only valid with) the traffic metrics
        (:data:`TRAFFIC_METRICS`); incompatible with adaptive round
        budgets. Serialized only when set, so every pre-existing link
        spec hash is untouched.
    importance_sampling:
        Optional
        :class:`~repro.simulation.sampling.ImportanceSamplingSpec`
        switching the cell evaluation to a twisted-noise proposal with
        exact likelihood-ratio reweighting — the rare-event estimator
        for deep-fade FER campaigns. Requires ``metric="fer"`` (the
        weighted estimator reweights frame errors; goodput and the
        traffic metrics have no weighted form). Serialized only when
        set, so every pre-existing link spec hash is untouched.
    """

    n_rounds: int
    payload_bits: int = 128
    seed: int = 0
    code: str = "nasa"
    crc: str = "crc16-ccitt"
    modulation: str = "bpsk"
    metric: str = "goodput"
    target_rel_error: float | None = None
    max_rounds: int | None = None
    traffic: TrafficSpec | None = None
    importance_sampling: "object | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.traffic, dict):
            object.__setattr__(self, "traffic", TrafficSpec(**self.traffic))
        if self.traffic is not None and not isinstance(self.traffic, TrafficSpec):
            raise InvalidParameterError(f"{self.traffic!r} is not a TrafficSpec")
        if self.importance_sampling is not None:
            from ..simulation.sampling import ImportanceSamplingSpec

            if isinstance(self.importance_sampling, dict):
                object.__setattr__(
                    self,
                    "importance_sampling",
                    ImportanceSamplingSpec(**self.importance_sampling),
                )
            if not isinstance(self.importance_sampling, ImportanceSamplingSpec):
                raise InvalidParameterError(
                    f"{self.importance_sampling!r} is not an ImportanceSamplingSpec"
                )
            if self.traffic is not None or self.metric in TRAFFIC_METRICS:
                raise InvalidParameterError(
                    "importance sampling reweights bare link rounds; it is "
                    "incompatible with traffic coupling "
                    f"(metric {self.metric!r})"
                )
            if self.metric != "fer":
                raise InvalidParameterError(
                    "importance sampling reweights the FER estimator; "
                    f'metric must be "fer", got {self.metric!r}'
                )
        if self.n_rounds < 1:
            raise InvalidParameterError(
                f"need at least one round per cell, got {self.n_rounds}"
            )
        if self.payload_bits < 1:
            raise InvalidParameterError(
                f"payload must be at least one bit, got {self.payload_bits}"
            )
        for value, options, label in (
            (self.code, LINK_CODES, "code"),
            (self.crc, LINK_CRCS, "crc"),
            (self.modulation, LINK_MODULATIONS, "modulation"),
            (self.metric, LINK_METRICS, "metric"),
        ):
            if value not in options:
                raise InvalidParameterError(
                    f"unknown {label} {value!r}; choose from {options}"
                )
        if (self.metric in TRAFFIC_METRICS) != (self.traffic is not None):
            raise InvalidParameterError(
                f"traffic parameters and a traffic metric "
                f"({TRAFFIC_METRICS}) go together: set both or neither"
            )
        if self.metric == "stable_throughput" and self.traffic.offered_loads is None:
            raise InvalidParameterError(
                "the stable_throughput metric sweeps offered loads; set "
                "TrafficSpec.offered_loads"
            )
        if self.target_rel_error is not None or self.max_rounds is not None:
            if self.traffic is not None:
                raise InvalidParameterError(
                    "traffic campaigns run a fixed slot horizon; adaptive "
                    "round budgets apply to bare link campaigns only"
                )
            # One source of truth for the adaptive-budget rules: the wave
            # schedule itself. A spec validates iff its schedule derives.
            from ..simulation.montecarlo import wave_bounds

            wave_bounds(
                self.n_rounds,
                target_rel_error=self.target_rel_error,
                max_rounds=self.max_rounds,
            )

    def codec(self):
        """Build the named :class:`~repro.simulation.linkcodec.LinkCodec`."""
        from ..simulation.convolutional import NASA_CODE, TEST_CODE
        from ..simulation.crc import CRC8, CRC16_CCITT, CRC32
        from ..simulation.linkcodec import LinkCodec
        from ..simulation.modulation import Bpsk, Qpsk

        codes = {"nasa": NASA_CODE, "test": TEST_CODE}
        crcs = {"crc8": CRC8, "crc16-ccitt": CRC16_CCITT, "crc32": CRC32}
        modulations = {"bpsk": Bpsk, "qpsk": Qpsk}
        return LinkCodec(
            payload_bits=self.payload_bits,
            code=codes[self.code],
            crc=crcs[self.crc],
            modulation=modulations[self.modulation](),
        )

    def to_dict(self) -> dict:
        """Plain-data form for hashing and serialization.

        The post-fusion fields (``metric``, ``target_rel_error``,
        ``max_rounds``) are emitted only when they deviate from the
        defaults, so every pre-existing operational spec serializes —
        and hashes — exactly as before (golden-tested).
        """
        data = {
            "n_rounds": int(self.n_rounds),
            "payload_bits": int(self.payload_bits),
            "seed": int(self.seed),
            "code": self.code,
            "crc": self.crc,
            "modulation": self.modulation,
        }
        if self.metric != "goodput":
            data["metric"] = self.metric
        if self.target_rel_error is not None:
            data["target_rel_error"] = float(self.target_rel_error)
            data["max_rounds"] = int(self.max_rounds)
        if self.traffic is not None:
            data["traffic"] = self.traffic.to_dict()
        if self.importance_sampling is not None:
            data["importance_sampling"] = self.importance_sampling.to_dict()
        return data


def _all_finite(values) -> bool:
    """Whether every entry is a finite real number (no NaN, no infinity)."""
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _jsonable(value):
    """Canonical plain-data form of an axis value (stable across runs)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise InvalidParameterError(
        f"axis value {value!r} is not JSON-serializable plain data"
    )


@dataclass(frozen=True)
class GridAxis:
    """One named, ordered dimension of a campaign grid.

    Attributes
    ----------
    name:
        Axis name; unique within a spec and distinct from the canonical
        :data:`GRID_AXES` names when used as an extensible axis.
    values:
        The axis points, in grid order. For extensible axes each value is
        a mapping of :data:`AXIS_OVERRIDE_KEYS` to parameter deltas.
    labels:
        Optional operator-facing labels, aligned with ``values``;
        ``display_labels`` falls back to ``str(value)``. Labels are
        cosmetic: they serialize with the axis but are excluded from the
        content hash, since they can never change the evaluated numbers.

    The axis contributes to the campaign's content hash through
    :meth:`to_dict` with ``labels=False``, which canonicalizes every
    value to plain JSON data — two axes hash equal iff they describe
    numerically identical grid dimensions.
    """

    name: str
    values: tuple
    labels: tuple | None = None

    def __post_init__(self) -> None:
        # Canonicalize values to plain JSON data up front, so equality and
        # hashing are representation-independent (tuple vs list, numpy
        # scalar vs float) and ``from_dict(to_dict(...))`` round-trips
        # to an equal axis.
        object.__setattr__(self, "values", tuple(_jsonable(v) for v in self.values))
        if self.labels is not None:
            object.__setattr__(
                self, "labels", tuple(str(label) for label in self.labels)
            )
        if not isinstance(self.name, str) or not self.name:
            raise InvalidParameterError(
                f"axis name must be a non-empty string, got {self.name!r}"
            )
        if not self.values:
            raise InvalidParameterError(f"axis {self.name!r} needs at least one value")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise InvalidParameterError(
                f"axis {self.name!r} has {len(self.values)} values but "
                f"{len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def display_labels(self) -> tuple:
        """The per-value labels (``str(value)`` where none were given)."""
        if self.labels is not None:
            return self.labels
        return tuple(str(value) for value in self.values)

    def to_dict(self, *, labels: bool = True) -> dict:
        """Canonical plain-data form.

        With ``labels=False`` the cosmetic labels are omitted — the form
        used for content hashing, so axes that differ only in labeling
        share cache entries (their numbers are identical by construction).
        """
        data = {
            "name": self.name,
            "values": [_jsonable(value) for value in self.values],
        }
        if labels:
            data["labels"] = list(self.labels) if self.labels is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GridAxis":
        """Inverse of :meth:`to_dict`."""
        labels = data.get("labels")
        return cls(
            name=data["name"],
            values=tuple(data["values"]),
            labels=tuple(labels) if labels is not None else None,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative evaluation grid over protocols, powers and channels.

    Attributes
    ----------
    protocols:
        Protocols to evaluate (grid axis 0).
    powers_db:
        Per-node transmit powers in dB (grid axis 1).
    gains:
        Mean channel geometries — path-loss gains of the three links
        (grid axis 2). Use :meth:`from_placements` for a relay-position
        sweep.
    fading:
        Optional quasi-static fading ensemble drawn around each geometry
        (the trailing ``draw`` axis). ``None`` evaluates the means
        themselves (``n_draws = 1``).
    extra_axes:
        Extensible named axes inserted between ``power`` and ``gains`` in
        grid order. Each axis is a :class:`GridAxis` whose values are
        mappings of :data:`AXIS_OVERRIDE_KEYS` to per-cell parameter
        deltas (e.g. a ``pair`` axis of per-pair gain offsets, or a
        power-policy axis of dB backoffs). Specs without extra axes keep
        the exact classic 4-axis content hash, so existing cache entries
        and shard artifacts survive the generalization.
    link:
        Optional :class:`LinkSimSpec` switching the campaign from the
        analytic LP kernel to the operational link-level simulator: each
        cell's value becomes the measured goodput (bits/symbol) of an
        independently seeded simulation campaign. ``None`` (the default)
        keeps the classic analytic evaluation — and, like ``extra_axes``,
        is omitted from the serialized form, so analytic spec hashes are
        untouched.
    """

    protocols: tuple
    powers_db: tuple
    gains: tuple
    fading: FadingSpec | None = None
    extra_axes: tuple = ()
    link: LinkSimSpec | None = None

    def __post_init__(self) -> None:
        if self.link is not None and not isinstance(self.link, LinkSimSpec):
            raise InvalidParameterError(f"{self.link!r} is not a LinkSimSpec")
        protocols = tuple(self.protocols)
        powers_db = tuple(float(p) for p in self.powers_db)
        gains = tuple(self.gains)
        extra_axes = tuple(self.extra_axes)
        object.__setattr__(self, "protocols", protocols)
        object.__setattr__(self, "powers_db", powers_db)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "extra_axes", extra_axes)
        if not protocols:
            raise InvalidParameterError("at least one protocol required")
        for p in protocols:
            if not isinstance(p, Protocol):
                raise InvalidParameterError(f"{p!r} is not a Protocol")
        if len(set(protocols)) != len(protocols):
            raise InvalidParameterError(f"duplicate protocols in {protocols}")
        if not powers_db:
            raise InvalidParameterError("at least one power point required")
        if not _all_finite(powers_db):
            raise InvalidParameterError(f"powers_db must be finite, got {powers_db}")
        if not gains:
            raise InvalidParameterError("at least one channel geometry required")
        for g in gains:
            if not isinstance(g, LinkGains):
                raise InvalidParameterError(f"{g!r} is not a LinkGains")
        self._validate_extra_axes(extra_axes)
        if self.link is not None and any(
            "node_powers_db" in value
            for axis in extra_axes
            for value in axis.values
        ):
            raise InvalidParameterError(
                "operational (link-level) campaigns model one shared transmit "
                "power; node_powers_db axes require the analytic kernel"
            )

    @staticmethod
    def _validate_extra_axes(extra_axes: tuple) -> None:
        seen = set(GRID_AXES)
        for axis in extra_axes:
            if not isinstance(axis, GridAxis):
                raise InvalidParameterError(f"{axis!r} is not a GridAxis")
            if axis.name in seen:
                raise InvalidParameterError(
                    f"duplicate or reserved axis name {axis.name!r}"
                )
            seen.add(axis.name)
            for value in axis.values:
                if not isinstance(value, dict):
                    raise InvalidParameterError(
                        f"axis {axis.name!r} value {value!r} must be a mapping "
                        f"of override keys {AXIS_OVERRIDE_KEYS}"
                    )
                unknown = set(value) - set(AXIS_OVERRIDE_KEYS)
                if unknown:
                    raise InvalidParameterError(
                        f"axis {axis.name!r} has unsupported override keys "
                        f"{sorted(unknown)}; supported: {AXIS_OVERRIDE_KEYS}"
                    )
                offsets = value.get("gain_offsets_db")
                if offsets is not None and len(tuple(offsets)) != 3:
                    raise InvalidParameterError(
                        f"axis {axis.name!r} gain_offsets_db must have one "
                        f"offset per link (ab, ar, br), got {offsets!r}"
                    )
                node_offsets = value.get("node_powers_db")
                if node_offsets is not None and len(tuple(node_offsets)) != 3:
                    raise InvalidParameterError(
                        f"axis {axis.name!r} node_powers_db must have one "
                        f"offset per node (a, b, r), got {node_offsets!r}"
                    )
                for key, entry in value.items():
                    if not _all_finite(entry if isinstance(entry, list) else [entry]):
                        raise InvalidParameterError(
                            f"axis {axis.name!r} {key} must be finite numbers, "
                            f"got {entry!r}"
                        )

    @classmethod
    def from_placements(
        cls,
        protocols,
        powers_db,
        n_placements: int,
        *,
        path_loss_exponent: float = 3.0,
        fading: FadingSpec | None = None,
    ) -> "CampaignSpec":
        """A relay-placement sweep along the ``a``–``b`` segment.

        Places the relay at ``n_placements`` evenly spaced interior
        positions and derives the gains from the log-distance path-loss law
        (the Fig. 3 cellular scenario).
        """
        if n_placements < 1:
            raise InvalidParameterError(
                f"need at least one placement, got {n_placements}"
            )
        fractions = np.linspace(0.1, 0.9, n_placements)
        gains = tuple(
            linear_relay_gains(float(f), exponent=path_loss_exponent)
            for f in fractions
        )
        return cls(
            protocols=tuple(protocols),
            powers_db=tuple(powers_db),
            gains=gains,
            fading=fading,
        )

    @property
    def n_draws(self) -> int:
        """Fading draws per geometry (1 when no fading is configured)."""
        return self.fading.n_draws if self.fading is not None else 1

    @property
    def grid_shape(self) -> tuple:
        """Result-array shape ``(protocols, powers, *extra, gains, draws)``."""
        return (
            len(self.protocols),
            len(self.powers_db),
            *(len(axis) for axis in self.extra_axes),
            len(self.gains),
            self.n_draws,
        )

    @property
    def axes(self) -> tuple:
        """Every grid dimension as a named :class:`GridAxis`, in order.

        Canonical axes carry their :data:`GRID_AXES` names (``gains``
        values are ``(gab, gar, gbr)`` triples, ``draw`` values are the
        draw indices); extensible axes appear verbatim between ``power``
        and ``gains``.
        """
        return (
            GridAxis(
                name="protocol",
                values=tuple(p.value for p in self.protocols),
                labels=tuple(p.name for p in self.protocols),
            ),
            GridAxis(
                name="power",
                values=self.powers_db,
                labels=tuple(f"{p:g} dB" for p in self.powers_db),
            ),
            *self.extra_axes,
            GridAxis(
                name="gains",
                values=tuple((g.gab, g.gar, g.gbr) for g in self.gains),
            ),
            GridAxis(name="draw", values=tuple(range(self.n_draws))),
        )

    @property
    def axis_names(self) -> tuple:
        """Ordered names of every grid dimension."""
        return (
            "protocol",
            "power",
            *(axis.name for axis in self.extra_axes),
            "gains",
            "draw",
        )

    @property
    def n_channels(self) -> int:
        """Concrete channels per block: geometries times draws."""
        return len(self.gains) * self.n_draws

    @property
    def block_shape(self) -> tuple:
        """Shape of the leading block axes ``(protocols, powers, *extra)``.

        The flat C-order unit index factors as ``(block, channel)``: a
        block fixes the protocol, the transmit power and every extensible
        axis value, a channel is one ``(geometry, draw)`` pair. This
        factorization is what keeps the execution engine axis-agnostic.
        """
        return (
            len(self.protocols),
            len(self.powers_db),
            *(len(axis) for axis in self.extra_axes),
        )

    @property
    def n_blocks(self) -> int:
        """Number of ``(protocol, power, *extra)`` blocks in the grid."""
        return int(np.prod(self.block_shape))

    def block_params(self, block: int):
        """Evaluation parameters of one block of the flat grid.

        Returns ``(protocol, power, gain_scale)`` where ``gain_scale`` is
        either ``None`` or the per-link linear factors accumulated from
        every extensible axis's ``gain_offsets_db``. ``power`` is the
        classic linear scalar unless some axis set ``node_powers_db``, in
        which case it is a :class:`~repro.channels.power.NodePowers` whose
        node powers apply the accumulated per-node dB offsets on top of
        the cell's base power. Deterministic elementwise arithmetic, so
        how the grid is chunked or sharded can never change the evaluated
        numbers.
        """
        if not 0 <= block < self.n_blocks:
            raise InvalidParameterError(
                f"block index {block} outside [0, {self.n_blocks})"
            )
        indices = np.unravel_index(block, self.block_shape)
        power_db = self.powers_db[indices[1]]
        gain_scale = None
        node_db = None
        for axis, value_index in zip(self.extra_axes, indices[2:]):
            value = axis.values[value_index]
            offset = value.get("power_db_offset")
            if offset is not None:
                power_db = power_db + float(offset)
            node_offsets = value.get("node_powers_db")
            if node_offsets is not None:
                deltas = tuple(float(x) for x in node_offsets)
                if node_db is None:
                    node_db = deltas
                else:
                    node_db = tuple(base + d for base, d in zip(node_db, deltas))
            gain_offsets = value.get("gain_offsets_db")
            if gain_offsets is not None:
                scale = np.array([db_to_linear(float(x)) for x in gain_offsets])
                gain_scale = scale if gain_scale is None else gain_scale * scale
        if node_db is None:
            power = db_to_linear(power_db)
        else:
            power = NodePowers(
                pa=db_to_linear(power_db + node_db[0]),
                pb=db_to_linear(power_db + node_db[1]),
                pr=db_to_linear(power_db + node_db[2]),
            )
        return self.protocols[indices[0]], power, gain_scale

    @property
    def n_units(self) -> int:
        """Total number of work units in the grid."""
        return int(np.prod(self.grid_shape))

    def shard(self, index: int, count: int) -> "CampaignShard":
        """Deterministic slice ``index`` of ``count`` of the flat grid.

        The flat C-order unit space is partitioned into ``count`` balanced
        contiguous ranges (sizes differ by at most one unit); the parent
        spec rides along, so every shard artifact stays attributable to —
        and cache-keyed by — the parent spec hash.
        """
        return CampaignShard(spec=self, index=index, count=count)

    def to_dict(self, *, labels: bool = True) -> dict:
        """Canonical plain-data form (stable across processes).

        The ``axes`` key is only present when extensible axes exist, so a
        classic 4-axis spec serializes — and therefore hashes — exactly as
        it did before axes became extensible (golden-hash tested).
        ``labels=False`` is the hashing form: axis labels are cosmetic
        and excluded from the content key.
        """
        data = {
            "protocols": [p.value for p in self.protocols],
            "powers_db": [float(p) for p in self.powers_db],
            "gains": [[float(g.gab), float(g.gar), float(g.gbr)] for g in self.gains],
            "fading": self.fading.to_dict() if self.fading else None,
        }
        if self.extra_axes:
            data["axes"] = [axis.to_dict(labels=labels) for axis in self.extra_axes]
        if self.link is not None:
            data["link"] = self.link.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`."""
        fading = data.get("fading")
        link = data.get("link")
        return cls(
            protocols=tuple(Protocol(p) for p in data["protocols"]),
            powers_db=tuple(data["powers_db"]),
            gains=tuple(LinkGains(*triple) for triple in data["gains"]),
            fading=FadingSpec(**fading) if fading else None,
            extra_axes=tuple(
                GridAxis.from_dict(axis) for axis in data.get("axes", ())
            ),
            link=LinkSimSpec(**link) if link else None,
        )

    def spec_hash(self) -> str:
        """Content hash of the spec (hex SHA-256 of its canonical JSON).

        Floats are serialized via ``repr`` round-tripping inside ``json``,
        which is exact for IEEE doubles, so two specs hash equal iff they
        describe bit-identical grids. Cosmetic axis labels are excluded:
        relabeling an axis can never change the numbers, so it must not
        move the cache key.
        """
        canonical = json.dumps(
            self.to_dict(labels=False), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def sample_gain_draws(self) -> np.ndarray:
        """The campaign's channel realizations, shape ``(G, D, 3)``.

        Geometry ``g``'s draws occupy ``[g, :, :]`` with the last axis
        ordered ``(gab, gar, gbr)``. Without fading this is just the means
        with ``D = 1``. Draws are paired across protocols and powers by
        construction (those axes do not consume randomness).
        """
        if self.fading is None:
            return np.array([[[g.gab, g.gar, g.gbr]] for g in self.gains])
        rng = np.random.default_rng(self.fading.seed)
        draws = np.empty((len(self.gains), self.fading.n_draws, 3))
        for gi, mean in enumerate(self.gains):
            ensemble = sample_gain_ensemble(
                mean,
                self.fading.n_draws,
                rng,
                k_factor=self.fading.k_factor,
            )
            for di, realized in enumerate(ensemble):
                draws[gi, di] = (realized.gab, realized.gar, realized.gbr)
        return draws


@dataclass(frozen=True)
class CampaignShard:
    """One contiguous slice of a campaign's flattened evaluation grid.

    ``spec.shard(index, count)`` partitions the flat C-order unit space
    into ``count`` balanced contiguous ranges; shard ``index`` (0-based)
    owns ``unit_range``. Because the parent spec — and therefore its
    content hash — rides along, independent shard processes coordinate
    solely through the content-addressed cache directory: each writes the
    chunks it computed under the parent key, and a gather step
    (:func:`repro.campaign.engine.gather_campaign`) reassembles the full
    grid bitwise-identically to an unsharded run.
    """

    spec: CampaignSpec
    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvalidParameterError(f"need at least one shard, got {self.count}")
        if not 0 <= self.index < self.count:
            raise InvalidParameterError(
                f"shard index {self.index} outside [0, {self.count})"
            )

    @property
    def unit_range(self) -> tuple:
        """Flat ``(start, stop)`` unit range owned by this shard."""
        base, extra = divmod(self.spec.n_units, self.count)
        start = self.index * base + min(self.index, extra)
        stop = start + base + (1 if self.index < extra else 0)
        return (start, stop)

    @property
    def start(self) -> int:
        """First flat unit index owned by this shard."""
        return self.unit_range[0]

    @property
    def stop(self) -> int:
        """One past the last flat unit index owned by this shard."""
        return self.unit_range[1]

    @property
    def n_units(self) -> int:
        """Number of grid cells this shard evaluates."""
        start, stop = self.unit_range
        return stop - start

    @property
    def parent_hash(self) -> str:
        """Content hash of the parent spec (shared by all shards)."""
        return self.spec.spec_hash()

    @property
    def label(self) -> str:
        """Operator-facing 1-based name, e.g. ``"shard 2/3"``."""
        return f"shard {self.index + 1}/{self.count}"
