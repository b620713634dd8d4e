"""Built-in scenarios: the paper's artifacts plus the first extensions.

Every figure-style workload in this library is one of these scenarios
evaluated through :func:`repro.api.evaluate`; the factories are also
importable directly so experiments can parameterize them (e.g.
``fig3_placement_scenario(config)`` for a custom sweep).

Registered names:

* ``fig3-placement`` / ``fig3-symmetric`` — the Fig. 3 sum-rate sweeps;
* ``fig4-operating-points`` — the Fig. 4 gain triple at both panel powers;
* ``fading-ensemble`` — the Section IV quasi-static Rayleigh ensemble;
* ``grid`` — the general protocols × powers × geometries × fading draws
  grid, every dimension a ``--param`` (relay placements or one gain
  triple; Rayleigh/Rician draws or the mean gains);
* ``two-pair-round-robin`` — the first multi-pair grid: two terminal
  pairs share the relay round-robin (arXiv:1002.0123 baseline);
* ``operational-goodput`` — the first link-level workload: measured
  decode-and-forward goodput of the production codec on the paper's
  geometry, via the batched simulation kernel;
* ``operational-fading-fer`` — link-level slow-fading frame error rates:
  FadingSpec-drawn geometries × an SNR sweep, evaluated by the
  cells-fused simulation kernel under adaptive round budgets (cf. the
  relay fading FER studies of arXiv:0903.1502 and the half-duplex
  outage analysis of arXiv:cs/0506018);
* ``operational-deepfade-fer`` — rare-event frame error rates under
  importance sampling: fading draws spanning deep fades through clean
  cells, measured with the twisted-noise proposal of
  :mod:`repro.simulation.sampling` so the low-FER cells resolve at
  sample sizes vanilla Monte Carlo cannot afford; low-FER cells
  cross-validate against the analytic outage curves of ``repro.core``;
* ``power-allocation-sweep`` — sum-power-constrained splits across a
  relay-placement axis, reporting the optimum split per cell
  (arXiv:0810.2746 direction);
* ``finite-snr-dmt`` — the Rayleigh outage ensemble across an SNR sweep,
  the raw material of finite-SNR diversity–multiplexing curves
  (post-processed by :func:`repro.experiments.dmt.finite_snr_dmt`);
* ``queueing-latency`` — the first traffic workload: Poisson arrivals
  into finite FIFO queues served by stop-and-wait ARQ over the measured
  link, reporting the 95th-percentile delivery latency in slots;
* ``multi-pair-scheduling`` — two asymmetrically-loaded pairs share the
  relay under a pluggable scheduler (``--param scheduler=...``); the
  objective is the stable-throughput knee of an offered-load sweep
  (the queueing side of the arXiv:1002.0123 topology).
"""

from __future__ import annotations

import numpy as np

from ..campaign.spec import CampaignSpec, FadingSpec, LinkSimSpec, TrafficSpec
from ..channels.gains import LinkGains
from ..channels.pathloss import linear_relay_gains
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from ..experiments.config import FIG3_DEFAULT, Fig3Config
from .base import PowerPolicy, RelayPair, Scenario, Topology
from .registry import register_scenario

__all__ = [
    "PAPER_PROTOCOLS",
    "fig3_placement_scenario",
    "fig3_symmetric_scenario",
    "fig4_operating_points_scenario",
    "fading_ensemble_scenario",
    "grid_scenario",
    "two_pair_round_robin_scenario",
    "operational_goodput_scenario",
    "operational_fading_fer_scenario",
    "operational_deepfade_fer_scenario",
    "relay_share_splits",
    "power_allocation_sweep_scenario",
    "finite_snr_dmt_scenario",
    "queueing_latency_scenario",
    "multi_pair_scheduling_scenario",
]

#: The four protocols of the paper's figures, in figure column order.
PAPER_PROTOCOLS = (Protocol.DT, Protocol.MABC, Protocol.TDBC, Protocol.HBC)

#: The Fig. 4 gain triple (G_ab = -7 dB, G_ar = 0 dB, G_br = 5 dB).
_PAPER_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)


@register_scenario(name="fig3-placement")
def fig3_placement_scenario(
    config: Fig3Config = FIG3_DEFAULT, protocols=PAPER_PROTOCOLS
) -> Scenario:
    """The Fig. 3 relay-placement sweep as a scenario."""
    gains = tuple(
        linear_relay_gains(float(f), exponent=config.path_loss_exponent)
        for f in config.relay_fractions
    )
    return Scenario(
        name="fig3-placement",
        description="Fig. 3 relay-placement sweep of the protocol sum rates",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Fig. 3",
        protocols=tuple(protocols),
        topology=Topology(
            gains=gains,
            gains_labels=tuple(f"{f:g}" for f in config.relay_fractions),
        ),
        power=PowerPolicy.uniform(powers_db=(config.power_db,)),
    )


@register_scenario(name="fig3-symmetric")
def fig3_symmetric_scenario(
    config: Fig3Config = FIG3_DEFAULT, protocols=PAPER_PROTOCOLS
) -> Scenario:
    """The Fig. 3 symmetric relay-gain sweep as a scenario."""
    gains = tuple(
        LinkGains.from_db(config.gab_db, float(g), float(g))
        for g in config.symmetric_gains_db
    )
    return Scenario(
        name="fig3-symmetric",
        description="Fig. 3 symmetric relay-gain sweep of the protocol sum rates",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Fig. 3",
        protocols=tuple(protocols),
        topology=Topology(
            gains=gains,
            gains_labels=tuple(f"{g:g} dB" for g in config.symmetric_gains_db),
        ),
        power=PowerPolicy.uniform(powers_db=(config.power_db,)),
    )


@register_scenario(name="fig4-operating-points")
def fig4_operating_points_scenario() -> Scenario:
    """The Fig. 4 gain triple at both panel powers (P = 0 and 10 dB)."""
    return Scenario(
        name="fig4-operating-points",
        description="Fig. 4 operating points: paper gains at P = 0 and 10 dB",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Fig. 4",
        protocols=PAPER_PROTOCOLS,
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(0.0, 10.0)),
    )


@register_scenario(name="fading-ensemble")
def fading_ensemble_scenario() -> Scenario:
    """The Section IV Rayleigh ensemble on the Fig. 4 geometry.

    Lowers to the same campaign spec (same content hash) the ensemble
    has always had, so cached results carry over; ``repro scenarios run
    fading-ensemble`` prints its ergodic and outage sum rates.
    """
    return Scenario(
        name="fading-ensemble",
        description="Section IV Rayleigh fading ensemble at both panel powers",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Sec. IV",
        protocols=PAPER_PROTOCOLS,
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(0.0, 10.0)),
        fading=FadingSpec(n_draws=200, seed=17),
    )


def _protocol_tuple(protocols) -> tuple:
    """Protocols from ``"all"``, comma-separated names or a sequence."""
    if isinstance(protocols, str):
        if protocols.strip().lower() == "all":
            return tuple(Protocol)
        protocols = protocols.split(",")
    elif np.ndim(protocols) == 0:
        protocols = (protocols,)
    return tuple(
        p if isinstance(p, Protocol) else Protocol.from_name(str(p)) for p in protocols
    )


def _float_tuple(name: str, values) -> tuple:
    """Floats from a number or a sequence of numbers."""
    if np.ndim(values) == 0:
        values = (values,)
    return tuple(_number(name, v) for v in values)


def _number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}") from None


def _whole(name: str, value) -> int:
    number = _number(name, value)
    if not number.is_integer():
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(number)


@register_scenario(name="grid")
def grid_scenario(
    protocols="dt,mabc,tdbc,hbc",
    powers_db=(10.0,),
    placements: int = 0,
    path_loss_exponent: float = 3.0,
    draws: int = 100,
    seed: int = 0,
    k_factor: float = 0.0,
    gab_db: float = -7.0,
    gar_db: float = 0.0,
    gbr_db: float = 5.0,
) -> Scenario:
    """The protocols × powers × geometries × fading-draws grid.

    Every dimension of the paper's evaluation grid is a parameter.
    ``placements=N`` sweeps ``N`` relay placements along the a–b segment
    under the path-loss law (the Fig. 3 geometry); ``0`` keeps the one
    gain triple ``(gab_db, gar_db, gbr_db)``. ``draws`` Rayleigh (or
    Rician, ``k_factor``) fading draws per geometry form the Section IV
    ensemble; ``0`` evaluates the mean gains. ``protocols`` takes
    ``"all"``, comma-separated names or a sequence, and ``powers_db`` a
    number or a sequence, so ``repro scenarios run grid --param
    protocols=mabc,hbc --param powers-db=0,10`` and a library call
    lower to the same spec hash.
    """
    draws = _whole("draws", draws)
    if draws < 0:
        raise InvalidParameterError(f"draws must be non-negative, got {draws}")
    protocols = _protocol_tuple(protocols)
    powers = _float_tuple("powers_db", powers_db)
    fading = (
        FadingSpec(
            n_draws=draws,
            seed=_whole("seed", seed),
            k_factor=_number("k_factor", k_factor),
        )
        if draws > 0
        else None
    )
    placements = _whole("placements", placements)
    if placements:
        spec = CampaignSpec.from_placements(
            protocols,
            powers,
            placements,
            path_loss_exponent=_number("path_loss_exponent", path_loss_exponent),
            fading=fading,
        )
    else:
        spec = CampaignSpec(
            protocols=protocols,
            powers_db=powers,
            gains=(
                LinkGains.from_db(
                    _number("gab_db", gab_db),
                    _number("gar_db", gar_db),
                    _number("gbr_db", gbr_db),
                ),
            ),
            fading=fading,
        )
    return Scenario.from_campaign_spec(
        spec,
        name="grid",
        description="protocols x powers x geometries x fading draws, "
        "every axis a parameter",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Fig. 3 and Sec. IV",
    )


@register_scenario(name="operational-goodput")
def operational_goodput_scenario() -> Scenario:
    """Measured DF goodput of the production codec at the paper's geometry.

    The operational check of the paper's headline claim, as a first-class
    campaign workload: every cell runs the concrete CRC + convolutional +
    BPSK + SIC + XOR-forwarding system through the batched link-level
    simulation kernel at P = 12 dB (comfortably above the codec's
    operating point) and reports goodput in bits/symbol — directly
    comparable to the analytic sum-rate bounds of ``fig4-operating-points``.
    """
    return Scenario(
        name="operational-goodput",
        description="measured link-level DF goodput at the paper's geometry",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007 (operational check)",
        protocols=PAPER_PROTOCOLS,
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(12.0,)),
        objective="operational_goodput",
        link=LinkSimSpec(n_rounds=24, payload_bits=128, seed=0),
    )


@register_scenario(name="operational-fading-fer")
def operational_fading_fer_scenario() -> Scenario:
    """Link-level FER of the production codec under slow Rayleigh fading.

    The first operational *fading* workload: every grid cell draws a
    quasi-static channel around the paper's geometry (the ``draw`` axis)
    and measures the combined frame error rate of the concrete DF system
    across an SNR sweep spanning the codec's waterfall. Cells run under
    an adaptive round budget: deep fades resolve their (high) FER after
    the first wave, while clean cells escalate toward ``max_rounds`` —
    the allocation pattern that makes slow-fading FER curves affordable
    (cf. arXiv:0903.1502; importance sampling is the next refinement).
    Evaluated by the cells-fused kernel, so the whole grid shares one
    decode pipeline per wave.
    """
    return Scenario(
        name="operational-fading-fer",
        description="link-level DF frame error rate over fading draws and SNR",
        grounding="fading FER methodology of arXiv:0903.1502",
        protocols=(Protocol.DT, Protocol.MABC, Protocol.TDBC),
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(4.0, 7.0, 10.0)),
        fading=FadingSpec(n_draws=4, seed=23),
        objective="operational_fer",
        link=LinkSimSpec(
            n_rounds=12,
            payload_bits=64,
            seed=7,
            metric="fer",
            target_rel_error=0.35,
            max_rounds=48,
        ),
    )


@register_scenario(name="operational-deepfade-fer")
def operational_deepfade_fer_scenario() -> Scenario:
    """Rare-event FER across fading draws, importance-sampled.

    The deep-fade companion of ``operational-fading-fer``: a strong
    direct-link geometry whose Rayleigh draws span genuine deep fades
    (FER near 1) through clean cells whose frame errors are far too
    rare for vanilla Monte Carlo at these budgets. Every cell runs
    under the twisted-noise proposal of
    :mod:`repro.simulation.sampling` — a mild variance inflation plus a
    transmit-aware mean shift toward the decision boundary — with the
    exact per-row likelihood ratio keeping the weighted FER unbiased
    and the ESS guard refusing to resolve on degenerate weights. DT
    and NAIVE4 both factorize per direction, so each direction's
    estimator only carries the likelihood-ratio factors of its own
    phases, and ``target_snr_db`` parameterizes the twist per cell:
    deep fades fall back to (near-)vanilla draws while clean cells
    take the full inflation. The
    low-FER cells are the ones whose realized gains the analytic
    machinery of ``repro.core`` places safely outside outage, which is
    what the cross-validation tests check (cf. arXiv:0903.1502).
    """
    # Imported here so an analytic-only caller never loads the link simulator.
    from ..simulation.sampling import ImportanceSamplingSpec

    return Scenario(
        name="operational-deepfade-fer",
        description="importance-sampled rare-event FER over deep-fade draws",
        grounding="deep-fade FER variance reduction of arXiv:0903.1502",
        protocols=(Protocol.DT, Protocol.NAIVE4),
        topology=Topology(gains=(LinkGains.from_db(1.5, 1.0, 1.0),)),
        power=PowerPolicy.uniform(powers_db=(0.0, 3.0)),
        fading=FadingSpec(n_draws=3, seed=31),
        objective="operational_fer",
        link=LinkSimSpec(
            n_rounds=256,
            payload_bits=16,
            seed=11,
            metric="fer",
            target_rel_error=0.5,
            max_rounds=16384,
            importance_sampling=ImportanceSamplingSpec(
                noise_scale=1.08, noise_shift=0.2, target_snr_db=2.0
            ),
        ),
    )


@register_scenario(name="two-pair-round-robin")
def two_pair_round_robin_scenario() -> Scenario:
    """Two terminal pairs sharing the relay under round-robin scheduling.

    The arXiv:1002.0123 baseline: each pair keeps the paper's
    per-pair bounds on its own geometry (pair 2 sits closer to the relay
    and further from its partner), the relay serves the pairs in equal
    time shares, and the network objective is the pair-axis mean of the
    per-pair optimal sum rates.
    """
    return Scenario(
        name="two-pair-round-robin",
        description="two pairs share the relay round-robin (multi-pair baseline)",
        grounding="multi-pair baseline of Kim, Smida & Devroye, arXiv:1002.0123",
        protocols=PAPER_PROTOCOLS,
        topology=Topology(
            gains=(_PAPER_GAINS,),
            pairs=(
                RelayPair(label="pair-1"),
                RelayPair(label="pair-2", gain_offsets_db=(-2.0, 3.0, -3.0)),
            ),
        ),
        power=PowerPolicy.uniform(powers_db=(10.0,)),
        fading=FadingSpec(n_draws=25, seed=11),
        objective="round_robin_sum_rate",
    )


def relay_share_splits(n_splits: int = 4) -> tuple:
    """Sum-power splits sweeping the relay's share of the budget.

    The one-parameter family ``((1 - f_r) / 2, (1 - f_r) / 2, f_r)`` with
    ``f_r`` evenly spaced in ``[1/6, 2/3]`` — sources symmetric, the relay
    from starved to dominant. The exact uniform split ``(1/3, 1/3, 1/3)``
    is always included (appended when the sweep misses it), so the
    optimum over the candidates weakly dominates uniform allocation by
    construction.
    """
    uniform = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    splits = []
    for share in np.linspace(1.0 / 6.0, 2.0 / 3.0, n_splits):
        source_share = (1.0 - float(share)) / 2.0
        split = (source_share, source_share, float(share))
        # Snap near-uniform sweep points to the exact triple: in floats
        # ``(1 - 1/3) / 2 != 1/3``, and the dominance guarantee wants
        # uniform represented exactly, not within an ulp.
        if max(abs(f - u) for f, u in zip(split, uniform)) < 1e-9:
            split = uniform
        splits.append(split)
    if uniform not in splits:
        splits.append(uniform)
    return tuple(splits)


@register_scenario(name="power-allocation-sweep")
def power_allocation_sweep_scenario(
    total_db: float = 16.0,
    n_splits: int = 4,
    n_placements: int = 5,
    protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
) -> Scenario:
    """Optimum split of a sum-power budget across a placement sweep.

    The arXiv:0810.2746 question on the paper's protocols: with the
    total transmit power fixed at ``total_db``, how should it be split
    between the two sources and the relay, and how does the optimum
    split move as the relay slides between the terminals? Every
    candidate split is one value of the ``power_allocation`` axis; the
    ``allocation_optimum_sum_rate`` objective reduces that axis by max,
    and ``EvaluationResult.optimum_along("power_allocation")`` names the
    winning split per cell.
    """
    fractions = np.linspace(0.2, 0.8, n_placements)
    gains = tuple(linear_relay_gains(float(f)) for f in fractions)
    return Scenario(
        name="power-allocation-sweep",
        description="optimum sum-power split across a relay-placement sweep",
        grounding="optimum power allocation of Vaze & Heath... arXiv:0810.2746",
        protocols=tuple(protocols),
        topology=Topology(
            gains=gains,
            gains_labels=tuple(f"{f:g}" for f in fractions),
        ),
        power=PowerPolicy.sum_constrained(total_db, relay_share_splits(n_splits)),
        objective="allocation_optimum_sum_rate",
    )


@register_scenario(name="finite-snr-dmt")
def finite_snr_dmt_scenario(
    snr_points_db=(5.0, 10.0, 15.0, 20.0),
    n_draws: int = 60,
    seed: int = 29,
    protocols=PAPER_PROTOCOLS,
) -> Scenario:
    """Rayleigh outage ensembles across an SNR sweep for finite-SNR DMT.

    Draws one paired quasi-static Rayleigh ensemble on the paper's
    geometry and evaluates every protocol at each SNR point — exactly
    the per-draw samples of :func:`repro.simulation.montecarlo
    .fading_sum_rate_statistics`, as a cacheable campaign grid. The
    finite-SNR diversity–multiplexing curves of arXiv:0810.2746 are
    post-processed from the result by
    :func:`repro.experiments.dmt.finite_snr_dmt`.
    """
    return Scenario(
        name="finite-snr-dmt",
        description="Rayleigh outage ensemble across SNR for finite-SNR DMT",
        grounding="finite-SNR diversity-multiplexing tradeoff of arXiv:0810.2746",
        protocols=tuple(protocols),
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=tuple(float(p) for p in snr_points_db)),
        fading=FadingSpec(n_draws=int(n_draws), seed=int(seed)),
    )


@register_scenario(name="queueing-latency")
def queueing_latency_scenario() -> Scenario:
    """Delivery-latency quantiles of an ARQ link under Poisson traffic.

    The first traffic workload: one pair on the paper's geometry,
    Poisson frame arrivals into finite FIFO queues, each slot running
    one measured protocol round through the link kernel, deliveries
    governed by stop-and-wait ARQ. The reported value per cell is the
    95th-percentile sojourn time in slots — the deployment-facing
    counterpart of the per-round frame error rates of
    ``operational-fading-fer``.
    """
    return Scenario(
        name="queueing-latency",
        description="95th-percentile ARQ delivery latency under Poisson arrivals",
        grounding="queueing layer over Kim, Mitran & Tarokh, ICDCS Workshops 2007",
        protocols=(Protocol.MABC, Protocol.TDBC),
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(8.0, 12.0)),
        objective="latency_quantiles",
        link=LinkSimSpec(
            n_rounds=144,
            payload_bits=64,
            seed=3,
            metric="latency",
            traffic=TrafficSpec(
                rates=(0.55,),
                buffer_frames=12,
                arq_limit=4,
            ),
        ),
    )


@register_scenario(name="multi-pair-scheduling")
def multi_pair_scheduling_scenario(scheduler: str = "opportunistic") -> Scenario:
    """Stable-throughput knee of two asymmetrically-loaded relay pairs.

    The queueing side of the arXiv:1002.0123 topology: pair 1 carries
    four times pair 2's load on the paper's geometry while pair 2 sits
    closer to the relay, and one relay serves both under ``scheduler``
    (``--param scheduler=round-robin|longest-queue|opportunistic``).
    Each cell sweeps the offered-load scale factors and reports the
    largest nominal offered rate (frames/slot) the discipline sustains.
    Work-conserving disciplines weakly dominate the fixed-rotation
    round-robin baseline here (test-asserted): rotating into an empty
    queue wastes slots that longest-queue-first and the channel-aware
    opportunistic scheduler reclaim.
    """
    return Scenario(
        name="multi-pair-scheduling",
        description="stable-throughput knee of two pairs under a relay scheduler",
        grounding="multi-pair scheduling over Kim, Smida & Devroye, arXiv:1002.0123",
        protocols=(Protocol.MABC, Protocol.TDBC),
        topology=Topology(gains=(_PAPER_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(10.0,)),
        objective="stable_throughput",
        link=LinkSimSpec(
            n_rounds=96,
            payload_bits=64,
            seed=5,
            metric="stable_throughput",
            traffic=TrafficSpec(
                rates=(0.5, 0.125),
                scheduler=scheduler,
                buffer_frames=10,
                arq_limit=3,
                pair_offsets_db=((0.0, 0.0, 0.0), (-2.0, 3.0, -3.0)),
                offered_loads=(0.4, 0.6, 0.8, 1.0, 1.2),
            ),
        ),
    )
