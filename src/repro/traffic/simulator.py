"""The traffic simulation itself, and its campaign-kernel adapter.

One simulation models ``K`` bi-directional terminal pairs sharing one
relay for ``link.n_rounds`` slots. Each slot runs at most one protocol
round for one pair (chosen by the scheduler); each direction of the
served pair transmits its head-of-line frame under stop-and-wait ARQ,
with the round's per-direction decode outcomes supplied by the pair's
pre-seeded :class:`~repro.traffic.outcomes.FrameOutcomeStream`.

RNG spawn tree (the determinism contract, mirrored in
``docs/architecture.md``)::

    cell rng = default_rng([link.seed, flat index])      # campaign layer
      ["stable_throughput" only] load j ...... rng.spawn(n_loads)[j]
      sim rng ── outcome root, arrival root .. sim_rng.spawn(2)
        outcome root ── pair k stream ........ outcome_root.spawn(K)[k]
          pair stream ── payloads, noise ..... pair_rng.spawn(2)
        arrival root ── flow (k, dir) ........ arrival_root.spawn(2K)[2k+dir]

Every stream is consumed in a fixed pattern, so event order and all
reported metrics are a pure function of the spec — independent of the
executor, chunking, sharding, and of whether outcomes were realized
batched or per-frame.

Every entry point runs its simulations through one driver,
:func:`_run_simulations`: all simulations of a batch (each cell, and for
``stable_throughput`` each offered load) are built and scheduled up
front, each event loop runs until it drains or parks on a pair whose
batched outcome stream has nothing realized left, and
:func:`~repro.traffic.outcomes.realize_chunks` then realizes the next
chunk of every parked stream in shared fused engine calls before the
parked loops resume. A parked event keeps its ``(time, priority, seq)``
key, so parking never changes the event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..channels.gains import LinkGains
from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear
from .arq import FlowTally, StopAndWaitArq
from .events import ARRIVAL, SERVICE, EventLoop
from .generators import arrival_times
from .outcomes import FrameOutcomeStream, realize_chunks
from .queues import FifoQueue, Frame
from .schedulers import get_scheduler

__all__ = [
    "FlowStats",
    "TrafficReport",
    "simulate_traffic",
    "traffic_link_values",
]


@dataclass(frozen=True)
class FlowStats:
    """Frozen per-flow outcome counts of one finished simulation.

    A *flow* is one direction of one pair; flows are ordered
    ``(pair 0 a→b, pair 0 b→a, pair 1 a→b, ...)``. ``latencies`` are the
    delivered frames' sojourn times in slots, in delivery order.
    """

    arrivals: int
    delivered: int
    drops_buffer: int
    drops_arq: int
    attempts: int
    latencies: tuple


@dataclass(frozen=True)
class TrafficReport:
    """Everything a finished traffic simulation measured."""

    n_slots: int
    n_pairs: int
    flows: tuple
    served_rounds: int
    idle_slots: int

    @property
    def offered(self) -> int:
        """Frames generated across all flows (admitted or not)."""
        return sum(flow.arrivals for flow in self.flows)

    @property
    def delivered(self) -> int:
        """Frames delivered across all flows."""
        return sum(flow.delivered for flow in self.flows)

    @property
    def dropped(self) -> int:
        """Frames dropped across all flows (buffer overflow + ARQ)."""
        return sum(flow.drops_buffer + flow.drops_arq for flow in self.flows)

    @property
    def throughput(self) -> float:
        """Delivered frames per slot."""
        return self.delivered / self.n_slots

    def latency_quantile(self, q: float) -> float:
        """Pooled delivery-latency quantile in slots (``inf`` if none)."""
        if not 0.0 < q <= 1.0:
            raise InvalidParameterError(f"quantile must be in (0, 1], got {q}")
        pooled = [x for flow in self.flows for x in flow.latencies]
        if not pooled:
            return float("inf")
        return float(np.quantile(np.array(pooled), q))


class _TrafficSim:
    """One simulation run: wiring between the event loop and the parts.

    Construction draws every arrival and schedules it, with every slot's
    service event; :meth:`advance` then fires events until the loop
    drains or parks.
    """

    def __init__(
        self, protocol, gains, power, *, link, rng, codec, method, chunk, rate_scale
    ):
        traffic = link.traffic
        if traffic is None:
            raise InvalidParameterError("link spec carries no traffic parameters")
        self.n_slots = int(link.n_rounds)
        offsets = traffic.pair_offsets_db
        self.n_pairs = len(offsets)
        outcome_root, arrival_root = rng.spawn(2)
        pair_rngs = outcome_root.spawn(self.n_pairs)
        self.streams = []
        for pair, pair_offsets in enumerate(offsets):
            scale = tuple(db_to_linear(float(x)) for x in pair_offsets)
            pair_gains = LinkGains(
                gains.gab * scale[0],
                gains.gar * scale[1],
                gains.gbr * scale[2],
            )
            self.streams.append(
                FrameOutcomeStream(
                    protocol,
                    pair_gains,
                    power,
                    self.n_slots,
                    pair_rngs[pair],
                    codec=codec,
                    method=method,
                    chunk=chunk,
                )
            )
        arrival_rngs = arrival_root.spawn(2 * self.n_pairs)
        self.queues = [
            (FifoQueue(traffic.buffer_frames), FifoQueue(traffic.buffer_frames))
            for _ in range(self.n_pairs)
        ]
        self.flows = [FlowTally() for _ in range(2 * self.n_pairs)]
        self.arq = StopAndWaitArq(traffic.arq_limit)
        self.scheduler = get_scheduler(traffic.scheduler)
        self.rate_scale = rate_scale
        self.served_rounds = 0
        self.idle_slots = 0
        self.loop = EventLoop()
        rates = traffic.pair_rates()
        for pair in range(self.n_pairs):
            for direction in range(2):
                times = arrival_times(
                    traffic.arrival,
                    rates[pair] * rate_scale,
                    self.n_slots,
                    arrival_rngs[2 * pair + direction],
                    burst_size=traffic.burst_size,
                )
                for t in times:
                    self.loop.schedule(t, ARRIVAL, self._arrive, pair, direction, t)
        for slot in range(self.n_slots):
            self.loop.schedule(float(slot), SERVICE, self._serve, slot)

    def _arrive(self, pair: int, direction: int, time: float) -> None:
        tally = self.flows[2 * pair + direction]
        tally.arrivals += 1
        if not self.queues[pair][direction].offer(Frame(time)):
            tally.drops_buffer += 1

    def _peek(self, pair: int) -> tuple:
        return self.streams[pair].peek()

    def _serve(self, slot: int) -> None:
        # Nothing changes before the served pair's outcome is known to be
        # realized, so a peek that parks leaves the slot as it found it; the
        # explicit peek makes ``take`` run exactly once per served round.
        backlogs = [(len(qa), len(qb)) for qa, qb in self.queues]
        pair = self.scheduler.pick(slot, backlogs, self._peek)
        if pair is None or backlogs[pair] == (0, 0):
            self.idle_slots += 1
            return
        stream = self.streams[pair]
        stream.peek()
        success_ab, success_ba = stream.take()
        self.served_rounds += 1
        completion = float(slot + 1)
        for direction, success in ((0, success_ab), (1, success_ba)):
            queue = self.queues[pair][direction]
            if len(queue):
                self.arq.transmit(
                    queue, self.flows[2 * pair + direction], success, completion
                )

    def advance(self):
        """Fire events until the loop drains (``None``) or parks.

        A parked loop returns the outcome stream it waits on; the next
        ``advance`` after that stream's chunk is realized resumes it.
        """
        self.loop.run()
        parked = self.loop.parked
        return None if parked is None else parked.stream

    def report(self) -> TrafficReport:
        return TrafficReport(
            n_slots=self.n_slots,
            n_pairs=self.n_pairs,
            flows=tuple(
                FlowStats(
                    arrivals=tally.arrivals,
                    delivered=tally.delivered,
                    drops_buffer=tally.drops_buffer,
                    drops_arq=tally.drops_arq,
                    attempts=tally.attempts,
                    latencies=tuple(tally.latencies),
                )
                for tally in self.flows
            ),
            served_rounds=self.served_rounds,
            idle_slots=self.idle_slots,
        )


def _run_simulations(sims) -> None:
    """Run every simulation to its end, realizing outcomes fused.

    Each round runs every waiting event loop until it drains or parks,
    then realizes the next chunk of every parked stream in one
    :func:`~repro.traffic.outcomes.realize_chunks` call and resumes the
    parked loops. Per-frame streams realize their own rounds, so their
    loops never park.
    """
    waiting = list(sims)
    while waiting:
        parked = []
        for sim in waiting:
            stream = sim.advance()
            if stream is not None:
                parked.append((sim, stream))
        realize_chunks([stream for _, stream in parked])
        waiting = [sim for sim, _ in parked]


def _load_sims(protocol, gains, power, *, link, rng, **options) -> list:
    """One simulation per offered load, each from its own spawned child.

    ``options`` are :class:`_TrafficSim`'s ``codec``/``method``/``chunk``;
    :class:`~repro.campaign.spec.LinkSimSpec` guarantees the loads exist.
    """
    loads = link.traffic.offered_loads
    return [
        _TrafficSim(
            protocol, gains, power, link=link, rng=load_rng, rate_scale=scale, **options
        )
        for scale, load_rng in zip(loads, rng.spawn(len(loads)))
    ]


def _knee(traffic, sims) -> float:
    """The largest stable nominal offered rate of a finished load sweep."""
    nominal = 2.0 * sum(traffic.pair_rates())
    knee = 0.0
    for sim in sims:
        report = sim.report()
        offered = report.offered
        stable = (
            offered == 0
            or report.delivered >= (1.0 - traffic.knee_tolerance) * offered
        )
        if stable:
            knee = max(knee, sim.rate_scale * nominal)
    return knee


def _cell_sims(protocol, gains, power, *, link, rng, **options) -> list:
    """The simulations behind one grid cell's ``link.metric`` value."""
    if link.metric == "stable_throughput":
        return _load_sims(protocol, gains, power, link=link, rng=rng, **options)
    return [
        _TrafficSim(
            protocol, gains, power, link=link, rng=rng, rate_scale=1.0, **options
        )
    ]


def _cell_value(link, sims) -> float:
    """A cell's metric from its finished :func:`_cell_sims`."""
    if link.metric == "stable_throughput":
        return _knee(link.traffic, sims)
    return sims[0].report().latency_quantile(link.traffic.latency_quantile)


def simulate_traffic(
    protocol,
    gains: LinkGains,
    power: float,
    *,
    link,
    rng: np.random.Generator,
    method: str = "batched",
    chunk: int | None = None,
    rate_scale: float = 1.0,
) -> TrafficReport:
    """Run one traffic simulation of ``link.traffic`` over ``link.n_rounds``.

    ``gains``/``power`` are the cell's base geometry and transmit power;
    each pair applies its own ``pair_offsets_db`` on top. ``rate_scale``
    multiplies every flow's arrival rate (the offered-load sweep knob).
    ``method``/``chunk`` select how link outcomes are realized — they can
    never change the report, only the wall clock (benchmark-asserted).
    """
    rate_scale = float(rate_scale)
    if not (math.isfinite(rate_scale) and rate_scale > 0):
        raise InvalidParameterError(
            f"rate scale must be positive and finite, got {rate_scale}"
        )
    sim = _TrafficSim(
        protocol,
        gains,
        power,
        link=link,
        rng=rng,
        codec=link.codec(),
        method=method,
        chunk=chunk,
        rate_scale=rate_scale,
    )
    _run_simulations([sim])
    return sim.report()


def traffic_link_values(
    protocol,
    gab,
    gar,
    gbr,
    power,
    *,
    link,
    indices,
    method: str = "batched",
) -> np.ndarray:
    """Metric values of a batch of traffic grid cells.

    The campaign-kernel adapter of the traffic objectives — the traffic
    counterpart of :func:`repro.simulation.montecarlo.fused_link_values`,
    with the same seeding contract: cell ``i``'s generator is seeded from
    ``(link.seed, flat unit index)``, so values depend only on the spec,
    never on executor choice, batch width, chunking or sharding. Every
    simulation of the batch runs through one driver, so the outcome
    chunks of all its cells, offered loads and pairs share fused engine
    calls.
    """
    gab = np.asarray(gab, dtype=float)
    gar = np.asarray(gar, dtype=float)
    gbr = np.asarray(gbr, dtype=float)
    power = np.asarray(power, dtype=float)
    indices = np.asarray(indices)
    if not (gab.shape == gar.shape == gbr.shape == power.shape == indices.shape):
        raise InvalidParameterError("mismatched cell-batch shapes")
    codec = link.codec()
    cells = [
        _cell_sims(
            protocol,
            LinkGains(gab[i], gar[i], gbr[i]),
            float(power[i]),
            link=link,
            rng=np.random.default_rng([int(link.seed), int(indices[i])]),
            codec=codec,
            method=method,
            chunk=None,
        )
        for i in range(gab.shape[0])
    ]
    _run_simulations([sim for sims in cells for sim in sims])
    values = np.empty(gab.shape[0])
    for i, sims in enumerate(cells):
        values[i] = _cell_value(link, sims)
    return values
