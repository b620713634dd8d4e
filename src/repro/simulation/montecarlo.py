"""Monte-Carlo drivers: link-level campaigns and fading-ensemble bounds.

Two complementary estimators live here:

* :func:`simulate_protocol` — run the *operational* link-level system
  (:mod:`repro.simulation.engine`) for many rounds on a fixed channel and
  report FER/BER/goodput. This is the "does a real DF system behave like
  the bounds say" check. By default the campaign runs as the one-cell
  case of :func:`simulate_protocol_cells` on the
  :class:`~repro.simulation.engine.BatchedProtocolEngine`;
  ``method="reference"`` runs the per-round
  :class:`~repro.simulation.engine.ProtocolEngine` loop instead, which
  is provably — and test-asserted — field-for-field identical.
* :func:`fading_sum_rate_statistics` — evaluate the *analytic*
  LP-optimal sum rates over a quasi-static fading ensemble (Section IV's
  channel model); the returned :class:`FadingStatistics` gives ergodic
  averages, ε-outage quantiles and outage-at-target probabilities.

Reproducibility policy of :func:`simulate_protocol` (the fix for the
historical payload/noise RNG coupling that blocked batching): the
caller's ``rng`` is never drawn from directly. It spawns two independent
child streams — payloads first, noise second. All payloads come from one
contiguous ``(n_rounds, 2, payload_bits)`` integer draw (direction ``a``
before ``b`` within each round); the noise stream then spawns one child
per protocol phase, consumed as described in
:mod:`repro.simulation.engine`. Since every draw site fills its array
sequentially in C order, the report is a pure function of ``(protocol,
gains, power, n_rounds, rng state, codec)`` — independent of the
fused row cap, chunking, or whether the batched or the per-round path
ran.

The analytic estimators draw the ensemble here (callers own the RNG)
and evaluate the per-realization optima through
:func:`repro.campaign.engine.evaluate_ensemble`, the one engine door
for concrete channel draws: a pluggable campaign executor runs the
batched vectorized kernel by default, bit-for-bit identical to the
serial executor. :class:`FadingStatistics` is the one result type: its
ergodic mean, ε-outage quantile and outage-at-target probability cover
Section IV's quasi-static fading view. Scenario-first callers should
evaluate a fading scenario through :func:`repro.api.evaluate` instead.

:func:`simulate_protocol_cells` is the **cells-fused** driver behind
every batched link campaign: it runs every grid cell of a batch through
one :class:`~repro.simulation.engine.BatchedProtocolEngine` pass per
wave — one Viterbi recursion, one CRC table sweep and one LLR
computation serving all cells that share a codec — while each cell
keeps its own root generator, payload stream and per-phase noise
streams. Fused reports are therefore bitwise-identical to evaluating
the cells one at a time, which is what keeps every campaign executor,
chunking, sharding and the content-addressed cache interchangeable.
:func:`fused_link_values` adapts the fused driver to the campaign
engine's unit-batch contract (cells seeded by flat grid index).

Adaptive round allocation: with ``target_rel_error``/``max_rounds`` set,
cells run in escalating waves whose boundaries come from
:func:`wave_bounds` — a pure function of the budget parameters, never of
wall-clock time or execution layout — and each cell stops at the first
spec-scheduled boundary where the relative standard error of its
combined frame-error-rate estimate, ``sqrt((1 - p) / (n * p))``, meets
the target (a cell with zero observed errors runs to ``max_rounds``).
Every wave draws one contiguous payload block per cell at those fixed
boundaries and noise streams split safely, so adaptive reports — like
fixed-budget ones — are a pure function of the spec, independent of
fusion width, executor choice or chunking. A cell that exhausts
``max_rounds`` without meeting the target is *surfaced*, not silent:
its report's ``resolved`` flag is ``False`` and campaign runs tally an
``unresolved_cells`` count through :func:`collect_adaptive_accounting`.

Importance sampling (:mod:`repro.simulation.sampling`): with an
:class:`~repro.simulation.sampling.ImportanceSamplingSpec`, every noise
block is twisted per cell *after* the identical standard draw and each
fused row is reweighted by its exact likelihood ratio — the FER
estimate stays unbiased while deep-fade errors become plentiful. The
stopping rule switches to the weighted estimator's relative standard
error, guarded by the effective sample size so degenerate proposals
fall back to the full budget instead of resolving on garbage.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ..campaign.engine import evaluate_ensemble
from ..channels.fading import sample_gain_ensemble
from ..channels.gains import LinkGains
from ..channels.halfduplex import HalfDuplexMedium
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from .engine import (
    BatchedProtocolEngine,
    ProtocolEngine,
    spawn_cell_phase_streams,
    spawn_phase_streams,
)
from .linkcodec import LinkCodec, default_codec
from .metrics import LinkCounter, ThroughputReport, WeightedFerCounter
from .sampling import ImportanceSamplingSpec, direction_log_weights

__all__ = [
    "SimulationReport",
    "simulate_protocol",
    "simulate_protocol_cells",
    "wave_bounds",
    "fused_link_values",
    "AdaptiveAccounting",
    "collect_adaptive_accounting",
    "DEFAULT_FUSED_ROWS",
    "FadingStatistics",
    "fading_sum_rate_statistics",
]

#: Default bound on fused rows (cells × rounds) per batched-engine call —
#: a cap on the decoder's working set, sized to keep a call's symbol and
#: metric arrays cache-resident (measured fastest around this value
#: on the production codec). Results never depend on it: fused waves
#: split at the cap along the rounds axis, payloads are pre-drawn per
#: wave and noise streams split safely.
DEFAULT_FUSED_ROWS = 512


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of a link-level campaign.

    Attributes
    ----------
    protocol:
        The simulated protocol.
    n_rounds:
        Number of protocol rounds executed.
    a_to_b / b_to_a:
        Per-direction error counters.
    throughput:
        Goodput accounting in bits per channel symbol.
    relay_failures:
        Rounds in which the relay failed to decode what it needed.
    sampling:
        Likelihood-ratio-weighted FER accounting
        (:class:`~repro.simulation.metrics.WeightedFerCounter`) when the
        campaign ran under an importance-sampling proposal; ``None`` for
        vanilla campaigns. When present, the per-direction counters hold
        *proposal-biased* raw counts — :attr:`fer` reports the weighted
        (unbiased) estimate instead.
    resolved:
        Adaptive-budget accounting: ``True`` if the cell met its
        ``target_rel_error`` at a wave boundary, ``False`` if it
        exhausted ``max_rounds`` without resolving, ``None`` for
        fixed-budget campaigns.
    """

    protocol: Protocol
    n_rounds: int
    a_to_b: LinkCounter
    b_to_a: LinkCounter
    throughput: ThroughputReport

    relay_failures: int
    sampling: WeightedFerCounter | None = None
    resolved: bool | None = None

    @property
    def sum_goodput(self) -> float:
        """Total delivered payload bits per channel symbol."""
        return self.throughput.sum_throughput

    @property
    def fer(self) -> float:
        """Combined frame error rate across both directions.

        Every round attempts one frame per direction, so this pools
        ``2 * n_rounds`` Bernoulli trials — the quantity the adaptive
        round-allocation controller drives to its target precision.
        Under importance sampling the pooled trials are reweighted by
        their exact likelihood ratios, so the estimate stays unbiased
        while the raw counters reflect the error-rich proposal.
        """
        if self.sampling is not None:
            return self.sampling.weighted_fer
        frames = self.a_to_b.frames + self.b_to_a.frames
        errors = self.a_to_b.frame_errors + self.b_to_a.frame_errors
        return errors / frames if frames else 0.0


def _simulate_reference(
    protocol, engine: ProtocolEngine, payloads, phase_streams
) -> SimulationReport:
    """Per-round reference loop: scalar engine, one record per round."""
    a_to_b = LinkCounter()
    b_to_a = LinkCounter()
    throughput = ThroughputReport()
    relay_failures = 0
    for wa, wb in payloads:
        result = engine.run_round(protocol, wa, wb, phase_streams=phase_streams)
        a_to_b.record(
            success=result.success_a_to_b,
            n_bits=result.payload_bits,
            n_bit_errors=result.bit_errors_a_to_b,
        )
        b_to_a.record(
            success=result.success_b_to_a,
            n_bits=result.payload_bits,
            n_bit_errors=result.bit_errors_b_to_a,
        )
        throughput.add_symbols(result.n_symbols)
        if result.success_a_to_b:
            throughput.record("a->b", delivered_bits=result.payload_bits)
        if result.success_b_to_a:
            throughput.record("b->a", delivered_bits=result.payload_bits)
        if result.relay_ok is False:
            relay_failures += 1
    return SimulationReport(
        protocol=protocol,
        n_rounds=payloads.shape[0],
        a_to_b=a_to_b,
        b_to_a=b_to_a,
        throughput=throughput,
        relay_failures=relay_failures,
    )


def wave_bounds(
    n_rounds: int,
    *,
    target_rel_error: float | None = None,
    max_rounds: int | None = None,
) -> tuple:
    """Cumulative wave boundaries of one cell's round allocation.

    Without a target the whole budget is one wave, ``(n_rounds,)`` —
    exactly the classic fixed-budget campaign. With a target, waves
    escalate geometrically (each boundary doubles the previous) from
    ``n_rounds`` up to ``max_rounds``, so an unresolved cell's budget
    grows by a constant factor per decision while a resolved cell stops
    at the earliest boundary. The schedule is a **pure function of the
    budget parameters** — both live in the spec's content hash — never of
    wall-clock time, executor choice or fusion width, which is what keeps
    adaptive campaign values cacheable and shard-stable.
    """
    if n_rounds < 1:
        raise InvalidParameterError(f"need at least one round, got {n_rounds}")
    if target_rel_error is None:
        if max_rounds is not None:
            raise InvalidParameterError(
                "max_rounds needs target_rel_error: set both or neither"
            )
        return (n_rounds,)
    if not 0 < target_rel_error < math.inf:
        raise InvalidParameterError(
            f"relative-error target must be positive and finite, got "
            f"{target_rel_error}"
        )
    if max_rounds is None:
        raise InvalidParameterError(
            "target_rel_error needs max_rounds: set both or neither"
        )
    if max_rounds < n_rounds:
        raise InvalidParameterError(
            f"max_rounds ({max_rounds}) must be >= the initial wave ({n_rounds})"
        )
    bounds = [int(n_rounds)]
    while bounds[-1] < max_rounds:
        bounds.append(min(2 * bounds[-1], int(max_rounds)))
    return tuple(bounds)


class _CellState:
    """Accumulating state of one grid cell inside a fused campaign."""

    __slots__ = (
        "gains",
        "payload_rng",
        "phase_streams",
        "a_to_b",
        "b_to_a",
        "throughput",
        "relay_failures",
        "sampling",
    )

    def __init__(
        self, gains: LinkGains, payload_rng, phase_streams, *, weighted: bool = False
    ) -> None:
        self.gains = gains
        self.payload_rng = payload_rng
        self.phase_streams = phase_streams
        self.a_to_b = LinkCounter()
        self.b_to_a = LinkCounter()
        self.throughput = ThroughputReport()
        self.relay_failures = 0
        self.sampling = WeightedFerCounter() if weighted else None

    def record(
        self, batch, lo: int, hi: int, log_weights_a=None, log_weights_b=None
    ) -> None:
        """Account this cell's slice of a fused :class:`RoundBatch`."""
        if self.sampling is not None:
            self.sampling.record_rows(
                log_weights_a=log_weights_a[lo:hi],
                log_weights_b=log_weights_b[lo:hi],
                success_a=batch.success_a_to_b[lo:hi],
                success_b=batch.success_b_to_a[lo:hi],
            )
        self.a_to_b.record_rows(
            success=batch.success_a_to_b[lo:hi],
            n_bits=batch.payload_bits,
            n_bit_errors=batch.bit_errors_a_to_b[lo:hi],
        )
        self.b_to_a.record_rows(
            success=batch.success_b_to_a[lo:hi],
            n_bits=batch.payload_bits,
            n_bit_errors=batch.bit_errors_b_to_a[lo:hi],
        )
        self.throughput.add_symbols((hi - lo) * batch.n_symbols)
        self.throughput.record_rows(
            "a->b",
            delivered_bits_per_frame=batch.payload_bits,
            successes=batch.success_a_to_b[lo:hi],
        )
        self.throughput.record_rows(
            "b->a",
            delivered_bits_per_frame=batch.payload_bits,
            successes=batch.success_b_to_a[lo:hi],
        )
        if batch.relay_ok is not None:
            self.relay_failures += int((~batch.relay_ok[lo:hi]).sum())

    def fer_resolved(
        self, target_rel_error: float, min_ess_fraction: float = 0.0
    ) -> bool:
        """Whether the combined-FER estimate meets the precision target.

        The relative standard error of a Bernoulli proportion estimate is
        ``sqrt((1 - p) / (n * p)) = sqrt((1 - p) / errors)``; with zero
        observed errors the FER is unresolved at any target, so the cell
        keeps running until ``max_rounds``.

        Under importance sampling the stopping rule switches to the
        weighted estimator's relative standard error
        (:attr:`~repro.simulation.metrics.WeightedFerCounter.rel_std_error`),
        guarded by the effective sample size: while ``ESS`` is below
        ``min_ess_fraction`` of the pooled trials the weights are too
        degenerate to trust and the cell may not resolve — it falls back
        to running its full budget.
        """
        if self.sampling is not None:
            if self.sampling.weighted_errors <= 0:
                return False
            if self.sampling.ess_fraction < min_ess_fraction:
                return False
            return self.sampling.rel_std_error <= target_rel_error
        errors = self.a_to_b.frame_errors + self.b_to_a.frame_errors
        if errors == 0:
            return False
        frames = self.a_to_b.frames + self.b_to_a.frames
        p = errors / frames
        return math.sqrt((1.0 - p) / errors) <= target_rel_error

    def report(
        self, protocol: Protocol, resolved: bool | None = None
    ) -> SimulationReport:
        """The cell's final :class:`SimulationReport`."""
        return SimulationReport(
            protocol=protocol,
            n_rounds=self.a_to_b.frames,
            a_to_b=self.a_to_b,
            b_to_a=self.b_to_a,
            throughput=self.throughput,
            relay_failures=self.relay_failures,
            sampling=self.sampling,
            resolved=resolved,
        )


def _run_fused_rounds(
    protocol, codec, cells, active, payloads, start, stop, power, sampling=None
) -> None:
    """One fused engine call: rounds ``[start, stop)`` of every active cell."""
    rounds = stop - start
    gab = np.array([cells[c].gains.gab for c in active])
    gar = np.array([cells[c].gains.gar for c in active])
    gbr = np.array([cells[c].gains.gbr for c in active])
    engine = BatchedProtocolEngine.for_cells(
        codec, gab, gar, gbr, power[list(active)], rounds, sampling=sampling
    )
    wa = np.concatenate([payloads[c][start:stop, 0] for c in active])
    wb = np.concatenate([payloads[c][start:stop, 1] for c in active])
    streams = spawn_cell_phase_streams(
        protocol, (cells[c].phase_streams for c in active), rounds
    )
    batch = engine.run_rounds(protocol, wa, wb, phase_streams=streams)
    log_weights_a = log_weights_b = None
    if sampling is not None:
        log_weights_a, log_weights_b = direction_log_weights(
            protocol, engine.medium.phase_log_lrs
        )
    for j, c in enumerate(active):
        cells[c].record(
            batch,
            j * rounds,
            (j + 1) * rounds,
            log_weights_a=log_weights_a,
            log_weights_b=log_weights_b,
        )


def simulate_protocol_cells(
    protocol: Protocol,
    gains_cells,
    power,
    n_rounds: int,
    rngs,
    *,
    codec: LinkCodec | None = None,
    target_rel_error: float | None = None,
    max_rounds: int | None = None,
    row_cap: int | None = None,
    sampling: ImportanceSamplingSpec | None = None,
) -> list:
    """Run one campaign per grid cell, fused into (cells × rounds) batches.

    The cells-fused counterpart of :func:`simulate_protocol`: cell ``i``
    runs on ``gains_cells[i]`` at ``power[i]`` (scalar powers broadcast)
    with root generator ``rngs[i]``, and the returned list holds one
    :class:`SimulationReport` per cell. Each cell's generator is spawned
    into payload and noise streams exactly as :func:`simulate_protocol`
    spawns its own, and the fused engine consumes every cell's streams
    per the per-cell policy — so the reports are **bitwise-identical** to
    calling :func:`simulate_protocol` per cell, while the decode
    arithmetic of all cells shares single NumPy passes.

    Parameters
    ----------
    protocol / n_rounds / codec:
        As in :func:`simulate_protocol`; ``n_rounds`` is the fixed budget
        per cell, or the initial wave when a target is set.
    gains_cells / power / rngs:
        Per-cell channel gains, transmit powers and root generators.
    target_rel_error / max_rounds:
        Optional adaptive round allocation (set both or neither): cells
        run in the escalating waves of :func:`wave_bounds` and stop at
        the first boundary where the combined-FER relative standard
        error meets the target, never exceeding ``max_rounds`` rounds.
    row_cap:
        Bound on fused rows per engine call (default
        :data:`DEFAULT_FUSED_ROWS`); a memory knob that can never change
        results.
    sampling:
        Optional :class:`~repro.simulation.sampling.ImportanceSamplingSpec`:
        noise draws are twisted per cell (after the identical standard
        draws, so vanilla cells are untouched), rows are reweighted by
        their exact likelihood ratios, and the adaptive stopping rule
        switches to the weighted estimator's relative standard error
        with the spec's effective-sample-size guard.

    Returns
    -------
    list of :class:`SimulationReport`, one per cell, in cell order. With
    an adaptive budget each report's ``resolved`` flag records whether
    the cell met its target (``False`` = exhausted ``max_rounds``
    unresolved — surfaced, not silent).
    """
    if n_rounds < 1:
        raise InvalidParameterError(f"need at least one round, got {n_rounds}")
    if row_cap is not None and row_cap < 1:
        raise InvalidParameterError(f"row cap must be positive, got {row_cap}")
    if sampling is not None and not isinstance(sampling, ImportanceSamplingSpec):
        raise InvalidParameterError(f"{sampling!r} is not an ImportanceSamplingSpec")
    bounds = wave_bounds(
        n_rounds, target_rel_error=target_rel_error, max_rounds=max_rounds
    )
    codec = codec or default_codec()
    gains_cells = tuple(gains_cells)
    rngs = tuple(rngs)
    if not gains_cells:
        raise InvalidParameterError("at least one cell required")
    if len(rngs) != len(gains_cells):
        raise InvalidParameterError(
            f"{len(gains_cells)} cells but {len(rngs)} generators"
        )
    n_cells = len(gains_cells)
    power = np.broadcast_to(np.asarray(power, dtype=float), (n_cells,)).copy()

    cells = []
    for gains, cell_rng in zip(gains_cells, rngs):
        payload_rng, noise_rng = cell_rng.spawn(2)
        cells.append(
            _CellState(
                gains=gains,
                payload_rng=payload_rng,
                phase_streams=spawn_phase_streams(protocol, noise_rng),
                weighted=sampling is not None,
            )
        )

    cap = row_cap or DEFAULT_FUSED_ROWS
    active = list(range(n_cells))
    previous = 0
    for bound in bounds:
        wave = bound - previous
        # One contiguous payload draw per cell per wave, at the
        # spec-fixed wave boundary — the same draw (and values) as the
        # per-cell path, whatever the fusion width or row cap below.
        payloads = {
            c: cells[c].payload_rng.integers(
                0, 2, size=(wave, 2, codec.payload_bits), dtype=np.uint8
            )
            for c in active
        }
        # Honor the row cap on both fused axes: groups of at most `cap`
        # cells, each running at most `cap // len(group)` rounds per
        # engine call, so no call exceeds `cap` rows. Pure execution
        # layout — per-cell streams make results independent of it.
        group_size = min(len(active), cap)
        for lo in range(0, len(active), group_size):
            group = active[lo : lo + group_size]
            step = max(1, min(wave, cap // len(group)))
            for start in range(0, wave, step):
                stop = min(start + step, wave)
                _run_fused_rounds(
                    protocol,
                    codec,
                    cells,
                    group,
                    payloads,
                    start,
                    stop,
                    power,
                    sampling=sampling,
                )
        previous = bound
        if target_rel_error is not None:
            min_ess = sampling.min_ess_fraction if sampling is not None else 0.0
            active = [
                c
                for c in active
                if not cells[c].fer_resolved(target_rel_error, min_ess)
            ]
            if not active:
                break
    if target_rel_error is None:
        return [cell.report(protocol) for cell in cells]
    # Cells still active exhausted max_rounds without meeting the target
    # — surfaced on the report instead of resolving silently.
    unresolved = set(active)
    return [
        cells[c].report(protocol, resolved=c not in unresolved)
        for c in range(n_cells)
    ]


def simulate_protocol(
    protocol: Protocol,
    gains: LinkGains,
    power: float,
    n_rounds: int,
    rng: np.random.Generator,
    *,
    codec: LinkCodec | None = None,
    method: str = "batched",
    target_rel_error: float | None = None,
    max_rounds: int | None = None,
    importance_sampling: ImportanceSamplingSpec | None = None,
) -> SimulationReport:
    """Run ``n_rounds`` of the protocol and aggregate statistics.

    Parameters
    ----------
    protocol:
        One of DT / MABC / TDBC / HBC (plus the NAIVE4 baseline).
    gains:
        Fixed (quasi-static) link gains for the whole campaign.
    power:
        Per-node transmit power (linear).
    n_rounds:
        Campaign length.
    rng:
        Root of all randomness. Spawned into independent payload and
        noise streams per the module-level reproducibility policy, so a
        given generator state always yields the same report regardless of
        execution method.
    codec:
        Frame pipeline; defaults to :func:`default_codec` (128-bit
        payloads, CRC-16, NASA K=7 code, BPSK).
    method:
        ``"batched"`` (default) runs the one-cell case of
        :func:`simulate_protocol_cells`; ``"reference"`` runs the
        per-round scalar loop. Both produce the identical
        :class:`SimulationReport`.
    target_rel_error / max_rounds:
        Optional adaptive round allocation (set both or neither; batched
        method only): run the escalating waves of :func:`wave_bounds`
        and stop at the first boundary where the combined-FER relative
        standard error meets the target.
    importance_sampling:
        Optional :class:`~repro.simulation.sampling.ImportanceSamplingSpec`
        (batched method only): run the campaign under a twisted-noise
        proposal with exact likelihood-ratio reweighting; the report's
        ``fer`` is then the weighted (unbiased) estimate and its
        ``sampling`` counter carries ESS/weight diagnostics.
    """
    if method not in ("batched", "reference"):
        raise InvalidParameterError(
            f"method must be 'batched' or 'reference', got {method!r}"
        )
    if not 0 <= power < np.inf:
        raise InvalidParameterError(
            f"power must be finite and non-negative, got {power}"
        )
    if method == "batched":
        return simulate_protocol_cells(
            protocol,
            (gains,),
            power,
            n_rounds,
            (rng,),
            codec=codec,
            target_rel_error=target_rel_error,
            max_rounds=max_rounds,
            sampling=importance_sampling,
        )[0]
    if (
        target_rel_error is not None
        or max_rounds is not None
        or importance_sampling is not None
    ):
        raise InvalidParameterError(
            "adaptive round allocation and importance sampling run "
            "through the batched engine; method must be 'batched'"
        )
    if n_rounds < 1:
        raise InvalidParameterError(f"need at least one round, got {n_rounds}")
    codec = codec or default_codec()
    payload_rng, noise_rng = rng.spawn(2)
    payloads = payload_rng.integers(
        0, 2, size=(n_rounds, 2, codec.payload_bits), dtype=np.uint8
    )
    engine = ProtocolEngine(
        medium=HalfDuplexMedium(gains=gains), codec=codec, power=power
    )
    return _simulate_reference(
        protocol, engine, payloads, spawn_phase_streams(protocol, noise_rng)
    )


class AdaptiveAccounting:
    """In-process tally of adaptive-cell resolution across fused batches.

    Installed by :func:`collect_adaptive_accounting`; every
    :func:`fused_link_values` call running in the installing context
    reports how many of its cells ran under an adaptive budget and how
    many exhausted ``max_rounds`` unresolved. Out-of-process executors
    (process pools) evaluate in workers that never see the tally — the
    campaign engine detects the shortfall by comparing
    :attr:`adaptive_cells` against its computed-cell count and reports
    the unresolved count as unknown rather than wrong.
    """

    def __init__(self) -> None:
        self.adaptive_cells = 0
        self.unresolved_cells = 0
        self._lock = threading.Lock()

    def note_reports(self, reports) -> None:
        """Tally the resolution flags of one fused batch's reports."""
        adaptive = sum(1 for report in reports if report.resolved is not None)
        unresolved = sum(1 for report in reports if report.resolved is False)
        with self._lock:
            self.adaptive_cells += adaptive
            self.unresolved_cells += unresolved


#: The tally of the current context. A context variable rather than a
#: module global, so concurrent in-process campaigns (the serve daemon
#: runs each in its own ``asyncio.to_thread`` worker) never count each
#: other's cells.
_ADAPTIVE_TALLY: ContextVar[AdaptiveAccounting | None] = ContextVar(
    "adaptive_tally", default=None
)


@contextmanager
def collect_adaptive_accounting():
    """Collect adaptive resolution accounting from enclosed evaluations.

    Yields an :class:`AdaptiveAccounting` that every
    :func:`fused_link_values` call inside the ``with`` block reports to.
    The tally is scoped to the installing context: the serial and
    vectorized executors evaluate in it, and a campaign running
    concurrently in another thread keeps its own tally. Used by
    :func:`repro.campaign.engine.run_campaign` to surface an
    ``unresolved_cells`` count without widening the executors'
    bare-value-array contract.
    """
    tally = AdaptiveAccounting()
    token = _ADAPTIVE_TALLY.set(tally)
    try:
        yield tally
    finally:
        _ADAPTIVE_TALLY.reset(token)


def fused_link_values(
    protocol: Protocol,
    gab,
    gar,
    gbr,
    power,
    *,
    link,
    indices,
) -> np.ndarray:
    """Metric values of a batch of operational grid cells, cells-fused.

    The campaign-kernel adapter of the operational objectives: every cell
    of the batch runs through one :func:`simulate_protocol_cells` call —
    one fused decode pipeline per wave instead of one per cell — and the
    returned value is the cell's ``link.metric`` (total goodput in
    bits/symbol, or combined FER). Cell ``i``'s generator is seeded from
    ``(link.seed, flat unit index)`` exactly like the per-cell path, so
    values depend only on the spec — never on executor choice, fusion
    width, chunking or sharding — keeping serial, multiprocessing and
    vectorized execution (and shard + gather) bitwise interchangeable.
    """
    gab = np.asarray(gab, dtype=float)
    gar = np.asarray(gar, dtype=float)
    gbr = np.asarray(gbr, dtype=float)
    power = np.asarray(power, dtype=float)
    indices = np.asarray(indices)
    if not (gab.shape == gar.shape == gbr.shape == power.shape == indices.shape):
        raise InvalidParameterError("mismatched cell-batch shapes")
    reports = simulate_protocol_cells(
        protocol,
        tuple(LinkGains(gab[i], gar[i], gbr[i]) for i in range(gab.shape[0])),
        power,
        link.n_rounds,
        tuple(
            np.random.default_rng([int(link.seed), int(indices[i])])
            for i in range(gab.shape[0])
        ),
        codec=link.codec(),
        target_rel_error=link.target_rel_error,
        max_rounds=link.max_rounds,
        sampling=link.importance_sampling,
    )
    tally = _ADAPTIVE_TALLY.get()
    if tally is not None:
        tally.note_reports(reports)
    if link.metric == "fer":
        return np.array([report.fer for report in reports])
    return np.array([report.sum_goodput for report in reports])


@dataclass(frozen=True)
class FadingStatistics:
    """Summary of a bound evaluated over a fading ensemble.

    Attributes
    ----------
    mean:
        Ergodic (ensemble-average) value.
    std_error:
        Standard error of the mean.
    samples:
        The per-realization values (for quantiles/outage post-processing).
    """

    mean: float
    std_error: float
    samples: np.ndarray

    def quantile(self, q: float) -> float:
        """Ensemble quantile (e.g. ``q=0.05`` for 5%-outage capacity).

        The empirical ε-outage sum rate of the adaptive-duration scheme: a
        target equal to the returned value fails in at most a ``q``
        fraction of the observed fades.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.samples, q))

    def outage_at(self, target: float) -> float:
        """Fraction of realizations whose optimal sum rate is below ``target``.

        This is the quasi-static outage probability: the channel is
        constant per protocol execution, so a realization is in outage
        when even optimal phase durations cannot support ``target``.
        """
        if not 0 <= target < math.inf:
            raise InvalidParameterError(
                f"target must be non-negative and finite, got {target}"
            )
        return float(np.mean(self.samples < target))


def fading_sum_rate_statistics(
    protocol: Protocol,
    mean_gains: LinkGains,
    power: float,
    n_draws: int,
    rng: np.random.Generator,
    *,
    k_factor: float = 0.0,
    executor=None,
) -> FadingStatistics:
    """Ensemble-average LP-optimal sum rate under quasi-static fading.

    Each realization draws reciprocal Rayleigh/Rician gains around the
    path-loss means, re-optimizes the phase durations (full CSI, as the
    paper assumes), and records the optimal sum rate. The per-realization
    optimizations run through
    :func:`repro.campaign.engine.evaluate_ensemble` (``executor``:
    campaign executor name or instance, defaulting to the vectorized fast
    path). The outage probability at a target sum rate is
    ``fading_sum_rate_statistics(...).outage_at(target)``; a cacheable,
    resumable ensemble is the ``fading-ensemble`` scenario.
    """
    if n_draws < 1:
        raise InvalidParameterError(f"need at least one draw, got {n_draws}")
    ensemble = sample_gain_ensemble(mean_gains, n_draws, rng, k_factor=k_factor)
    values = evaluate_ensemble(protocol, ensemble, power, executor=executor)
    return FadingStatistics(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(n_draws)) if n_draws > 1 else 0.0,
        samples=values,
    )
