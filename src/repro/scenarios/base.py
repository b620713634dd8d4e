"""Declarative evaluation scenarios: topology, channel, power, objective.

A :class:`Scenario` is the scenario-first answer to "evaluate a protocol
set over a parameter grid": it names *what* is being evaluated — which
terminal pairs share the relay (:class:`Topology`), how the channel fades
(:class:`~repro.campaign.spec.FadingSpec`), which transmit-power policy
applies (:class:`PowerPolicy`), which protocols compete and under which
objective — and lowers to a :class:`~repro.campaign.spec.CampaignSpec`
for execution. Everything downstream (executors, chunk checkpointing,
sharding, the content-addressed cache) is inherited from the campaign
engine unchanged, because the lowering is pure data.

Multi-pair networks (Kim, Smida & Devroye, arXiv:1002.0123 baseline) are
expressed through the topology's ``pairs``: every pair sits at its own
per-link dB offsets relative to the swept base geometry and becomes one
value of an extensible ``pair`` grid axis. The round-robin objective
models the shared relay serving the pairs in equal time shares, so the
network sum rate is the mean over the pair axis of the per-pair bounds.

Finite-SNR power studies (Yi & Kim, arXiv:0810.2746 direction) use the
power policy's ``offsets_db``, which become a ``power_policy`` axis of dB
backoffs applied on top of the swept base powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.spec import CampaignSpec, FadingSpec, GridAxis, LinkSimSpec
from ..channels.gains import LinkGains
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from ..information.functions import linear_to_db

__all__ = ["RelayPair", "Topology", "PowerPolicy", "Scenario", "OBJECTIVES"]

#: Supported scenario objectives.
#:
#: * ``sum_rate`` — the per-cell LP-optimal sum rate, unreduced;
#: * ``round_robin_sum_rate`` — the network sum rate of a multi-pair
#:   topology under round-robin relay scheduling: each pair is served a
#:   ``1/K`` time share, so the objective is the mean over the ``pair``
#:   axis of the per-pair optimal sum rates;
#: * ``operational_goodput`` — the measured goodput (bits/symbol) of the
#:   concrete decode-and-forward link simulator on every grid cell,
#:   parameterized by the scenario's :class:`~repro.campaign.spec
#:   .LinkSimSpec`. The operational counterpart of ``sum_rate``: the same
#:   grid machinery, with the analytic kernel swapped for the cells-fused
#:   link-level simulation kernel;
#: * ``operational_fer`` — the measured combined frame error rate of both
#:   directions on every grid cell (``LinkSimSpec.metric = "fer"``): the
#:   link-level reliability counterpart of ``operational_goodput``, the
#:   natural objective for fading FER studies with adaptive round
#:   budgets (``LinkSimSpec.target_rel_error``);
#: * ``allocation_optimum_sum_rate`` — the best achievable sum rate over
#:   the scenario's ``power_allocation`` axis: the per-cell LP-optimal
#:   sum rates reduced by ``max`` along that axis, reporting the optimum
#:   power split of every remaining grid cell (arXiv:0810.2746);
#: * ``latency_quantiles`` — the configured delivery-latency quantile
#:   (in slots) of the event-driven traffic simulation on every grid
#:   cell (``LinkSimSpec.metric = "latency"``): spec-seeded arrivals,
#:   finite buffers and stop-and-wait ARQ above the link kernel;
#: * ``stable_throughput`` — the largest sustained offered load (in
#:   frames/slot) located by the per-cell offered-load sweep of the
#:   traffic simulation (``LinkSimSpec.metric = "stable_throughput"``):
#:   the throughput-knee objective of the multi-pair scheduling
#:   comparison (arXiv:1002.0123 direction).
OBJECTIVES = (
    "sum_rate",
    "round_robin_sum_rate",
    "operational_goodput",
    "operational_fer",
    "allocation_optimum_sum_rate",
    "latency_quantiles",
    "stable_throughput",
)

#: Operational objectives and the :class:`LinkSimSpec` metric each reports.
_OPERATIONAL_METRICS = {
    "operational_goodput": "goodput",
    "operational_fer": "fer",
    "latency_quantiles": "latency",
    "stable_throughput": "stable_throughput",
}


@dataclass(frozen=True)
class RelayPair:
    """One ``a <-> b`` terminal pair served by the shared relay.

    Attributes
    ----------
    label:
        Operator-facing pair name (unique within a topology).
    gain_offsets_db:
        Per-link ``(ab, ar, br)`` dB offsets applied to the topology's
        base geometry — where this pair's terminals sit relative to the
        relay. The all-zero default is the base geometry itself.
    """

    label: str
    gain_offsets_db: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        offsets = tuple(float(x) for x in self.gain_offsets_db)
        object.__setattr__(self, "gain_offsets_db", offsets)
        if not isinstance(self.label, str) or not self.label:
            raise InvalidParameterError(
                f"pair label must be a non-empty string, got {self.label!r}"
            )
        if len(offsets) != 3:
            raise InvalidParameterError(
                f"pair {self.label!r} needs one dB offset per link "
                f"(ab, ar, br), got {self.gain_offsets_db!r}"
            )


@dataclass(frozen=True)
class Topology:
    """Node topology: base channel geometries plus the pairs sharing them.

    Attributes
    ----------
    gains:
        Mean channel geometries — the ``gains`` sweep axis of the grid
        (e.g. relay placements, or a single operating geometry).
    gains_labels:
        Optional operator-facing labels for the ``gains`` axis values
        (e.g. relay positions or swept dB values).
    pairs:
        The terminal pairs sharing the relay. More than one pair (or any
        non-zero offsets) adds an extensible ``pair`` axis to the grid.
    """

    gains: tuple
    gains_labels: tuple | None = None
    pairs: tuple = (RelayPair(label="pair-1"),)

    def __post_init__(self) -> None:
        gains = tuple(self.gains)
        pairs = tuple(self.pairs)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "pairs", pairs)
        if self.gains_labels is not None:
            labels = tuple(str(label) for label in self.gains_labels)
            object.__setattr__(self, "gains_labels", labels)
            if len(labels) != len(gains):
                raise InvalidParameterError(
                    f"{len(gains)} geometries but {len(labels)} gains labels"
                )
        if not gains:
            raise InvalidParameterError("at least one channel geometry required")
        for g in gains:
            if not isinstance(g, LinkGains):
                raise InvalidParameterError(f"{g!r} is not a LinkGains")
        if not pairs:
            raise InvalidParameterError("at least one relay pair required")
        for pair in pairs:
            if not isinstance(pair, RelayPair):
                raise InvalidParameterError(f"{pair!r} is not a RelayPair")
        labels = [pair.label for pair in pairs]
        if len(set(labels)) != len(labels):
            raise InvalidParameterError(f"duplicate pair labels in {labels}")

    @property
    def n_pairs(self) -> int:
        """Number of terminal pairs sharing the relay."""
        return len(self.pairs)

    def pair_axis(self) -> GridAxis | None:
        """The extensible ``pair`` axis, or ``None`` for the trivial case.

        A single all-zero-offset pair is the classic single-pair grid; it
        contributes no axis, so single-pair scenarios keep the exact
        classic 4-axis spec hash.
        """
        if self.n_pairs == 1 and not any(self.pairs[0].gain_offsets_db):
            return None
        return GridAxis(
            name="pair",
            values=tuple(
                {"gain_offsets_db": list(pair.gain_offsets_db)} for pair in self.pairs
            ),
            labels=tuple(pair.label for pair in self.pairs),
        )


@dataclass(frozen=True)
class PowerPolicy:
    """Transmit-power policy: base sweep, policy backoffs, allocations.

    Construct through the factory classmethods — :meth:`uniform` (every
    node at the swept power, the paper's model), :meth:`per_node`
    (explicit per-node dB offsets) or :meth:`sum_constrained` (splits of
    a total-power budget, arXiv:0810.2746). The bare constructor takes
    the same fields and equals :meth:`uniform` on its defaults.

    Attributes
    ----------
    powers_db:
        Base transmit powers in dB (the classic ``power`` axis). For a
        sum-constrained policy these are the *total* budgets.
    offsets_db:
        Policy backoffs/boosts in dB applied on top of every base power.
        More than one value (or any non-zero value) adds an extensible
        ``power_policy`` axis to the grid.
    offset_labels:
        Optional labels for the policy axis values.
    allocations_db:
        Optional per-node ``(a, b, r)`` dB offsets — the power-allocation
        candidates. More than one allocation (or any non-zero one) adds
        an extensible ``power_allocation`` axis to the grid; ``None``
        (the default) keeps the classic one-shared-power model and the
        classic spec hash.
    allocation_labels:
        Optional labels for the allocation axis values (e.g. the split
        fractions a sum-constrained policy was built from).
    name:
        Operator-facing policy name (e.g. ``"fixed"``, ``"backoff"``).
    """

    powers_db: tuple = (10.0,)
    offsets_db: tuple = (0.0,)
    offset_labels: tuple | None = None
    name: str = "fixed"
    allocations_db: tuple | None = None
    allocation_labels: tuple | None = None

    def __post_init__(self) -> None:
        powers = tuple(float(p) for p in self.powers_db)
        offsets = tuple(float(x) for x in self.offsets_db)
        object.__setattr__(self, "powers_db", powers)
        object.__setattr__(self, "offsets_db", offsets)
        if self.offset_labels is not None:
            labels = tuple(str(label) for label in self.offset_labels)
            object.__setattr__(self, "offset_labels", labels)
            if len(labels) != len(offsets):
                raise InvalidParameterError(
                    f"{len(offsets)} offsets but {len(labels)} offset labels"
                )
        if not powers:
            raise InvalidParameterError("at least one power point required")
        if not offsets:
            raise InvalidParameterError("at least one policy offset required")
        if self.allocations_db is not None:
            allocations = tuple(
                tuple(float(x) for x in allocation)
                for allocation in self.allocations_db
            )
            object.__setattr__(self, "allocations_db", allocations)
            if not allocations:
                raise InvalidParameterError(
                    "at least one power allocation required (or None)"
                )
            for allocation in allocations:
                if len(allocation) != 3:
                    raise InvalidParameterError(
                        f"an allocation needs one dB offset per node "
                        f"(a, b, r), got {allocation!r}"
                    )
        if self.allocation_labels is not None:
            if self.allocations_db is None:
                raise InvalidParameterError("allocation labels require allocations")
            labels = tuple(str(label) for label in self.allocation_labels)
            object.__setattr__(self, "allocation_labels", labels)
            if len(labels) != len(self.allocations_db):
                raise InvalidParameterError(
                    f"{len(self.allocations_db)} allocations but "
                    f"{len(labels)} allocation labels"
                )

    @classmethod
    def uniform(
        cls,
        powers_db=(10.0,),
        offsets_db=(0.0,),
        offset_labels=None,
        *,
        name: str = "fixed",
    ) -> "PowerPolicy":
        """Every node transmits at the swept power — the classic policy."""
        return cls(
            powers_db=powers_db,
            offsets_db=offsets_db,
            offset_labels=offset_labels,
            name=name,
        )

    @classmethod
    def per_node(
        cls,
        powers_db,
        allocations_db=((0.0, 0.0, 0.0),),
        labels=None,
        *,
        offsets_db=(0.0,),
        offset_labels=None,
        name: str = "per-node",
    ) -> "PowerPolicy":
        """Explicit per-node ``(a, b, r)`` dB offsets on the swept power."""
        return cls(
            powers_db=powers_db,
            offsets_db=offsets_db,
            offset_labels=offset_labels,
            allocations_db=tuple(tuple(a) for a in allocations_db),
            allocation_labels=labels,
            name=name,
        )

    @classmethod
    def sum_constrained(
        cls,
        total_db: float,
        splits,
        *,
        labels=None,
        name: str = "sum-constrained",
    ) -> "PowerPolicy":
        """Split a total power budget across the nodes (arXiv:0810.2746).

        ``total_db`` is the sum-power budget; each split is a
        ``(f_a, f_b, f_r)`` fraction triple (positive, summing to one)
        and node ``i`` transmits at ``f_i * P_total``. Default labels
        render the fractions, e.g. ``"1/3 1/3 1/3"``.
        """
        split_tuples = tuple(tuple(float(f) for f in split) for split in splits)
        if not split_tuples:
            raise InvalidParameterError("at least one power split required")
        for split in split_tuples:
            if len(split) != 3:
                raise InvalidParameterError(
                    f"a split needs one fraction per node (a, b, r), "
                    f"got {split!r}"
                )
            if any(f <= 0 for f in split):
                raise InvalidParameterError(
                    f"split fractions must be positive, got {split!r}"
                )
            if abs(sum(split) - 1.0) > 1e-9:
                raise InvalidParameterError(
                    f"split fractions must sum to 1, got {split!r}"
                )
        allocations = tuple(
            tuple(linear_to_db(f) for f in split) for split in split_tuples
        )
        if labels is None:
            labels = tuple(f"{fa:g}/{fb:g}/{fr:g}" for fa, fb, fr in split_tuples)
        return cls(
            powers_db=(float(total_db),),
            allocations_db=allocations,
            allocation_labels=labels,
            name=name,
        )

    def policy_axis(self) -> GridAxis | None:
        """The extensible ``power_policy`` axis, or ``None`` if trivial."""
        if len(self.offsets_db) == 1 and self.offsets_db[0] == 0.0:
            return None
        labels = self.offset_labels
        if labels is None:
            labels = tuple(f"{x:+g} dB" for x in self.offsets_db)
        return GridAxis(
            name="power_policy",
            values=tuple({"power_db_offset": x} for x in self.offsets_db),
            labels=labels,
        )

    def allocation_axis(self) -> GridAxis | None:
        """The extensible ``power_allocation`` axis, or ``None`` if trivial.

        A single all-zero allocation is the classic shared-power model;
        it contributes no axis, so such policies keep the classic spec
        hash (the PR 4/5 serialize-only-when-set discipline).
        """
        if self.allocations_db is None:
            return None
        if len(self.allocations_db) == 1 and not any(self.allocations_db[0]):
            return None
        labels = self.allocation_labels
        if labels is None:
            labels = tuple(
                "/".join(f"{x:+g}" for x in allocation) + " dB"
                for allocation in self.allocations_db
            )
        return GridAxis(
            name="power_allocation",
            values=tuple(
                {"node_powers_db": list(allocation)}
                for allocation in self.allocations_db
            ),
            labels=labels,
        )


@dataclass(frozen=True)
class Scenario:
    """A named, declarative evaluation scenario.

    Attributes
    ----------
    name:
        Scenario name (the registry key when registered).
    description:
        One-line operator-facing description.
    protocols:
        Protocol set to compare (the leading grid axis).
    topology:
        Terminal/relay topology, including the ``pairs`` axis.
    power:
        Transmit-power policy, including the base power sweep.
    fading:
        Quasi-static fading model; ``None`` evaluates the mean geometries.
    objective:
        One of :data:`OBJECTIVES`.
    link:
        Link-level simulation parameters; required by (and only valid
        with) the operational and traffic objectives, whose
        ``LinkSimSpec.metric`` must match the objective.
    grounding:
        Which paper (or result) this scenario reproduces or extends —
        pure catalog metadata: it does not affect the lowered spec, its
        content hash, or any cache key.
    """

    name: str
    description: str
    protocols: tuple
    topology: Topology
    power: PowerPolicy = field(default_factory=PowerPolicy.uniform)
    fading: FadingSpec | None = None
    objective: str = "sum_rate"
    link: LinkSimSpec | None = None
    grounding: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        if not isinstance(self.name, str) or not self.name:
            raise InvalidParameterError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        if not isinstance(self.grounding, str):
            raise InvalidParameterError(
                f"scenario grounding must be a string, got {self.grounding!r}"
            )
        for p in self.protocols:
            if not isinstance(p, Protocol):
                raise InvalidParameterError(f"{p!r} is not a Protocol")
        if self.objective not in OBJECTIVES:
            raise InvalidParameterError(
                f"unknown objective {self.objective!r}; choose from {OBJECTIVES}"
            )
        metric = _OPERATIONAL_METRICS.get(self.objective)
        if (metric is not None) != (self.link is not None):
            raise InvalidParameterError(
                "link simulation parameters and an operational objective "
                "go together: set both or neither"
            )
        if metric is not None and self.link.metric != metric:
            raise InvalidParameterError(
                f"objective {self.objective!r} reports the {metric!r} metric, "
                f"but the link spec is configured for {self.link.metric!r}"
            )
        if self.link is not None and self.power.allocation_axis() is not None:
            raise InvalidParameterError(
                "operational scenarios model one shared transmit power; "
                "power allocations require an analytic objective"
            )

    @property
    def n_pairs(self) -> int:
        """Number of terminal pairs sharing the relay."""
        return self.topology.n_pairs

    def to_campaign_spec(self) -> CampaignSpec:
        """Lower the scenario to a declarative campaign grid.

        Trivial pair/policy dimensions are omitted, so a classic
        single-pair fixed-power scenario lowers to a 4-axis spec whose
        content hash — and therefore cache entries and shard artifacts —
        is identical to the pre-scenario API.
        """
        extra = []
        pair_axis = self.topology.pair_axis()
        if pair_axis is not None:
            extra.append(pair_axis)
        policy_axis = self.power.policy_axis()
        if policy_axis is not None:
            extra.append(policy_axis)
        allocation_axis = self.power.allocation_axis()
        if allocation_axis is not None:
            extra.append(allocation_axis)
        return CampaignSpec(
            protocols=self.protocols,
            powers_db=self.power.powers_db,
            gains=self.topology.gains,
            fading=self.fading,
            extra_axes=tuple(extra),
            link=self.link,
        )

    @classmethod
    def from_campaign_spec(
        cls,
        spec: CampaignSpec,
        *,
        name: str,
        description: str = "",
        objective: str = "sum_rate",
        grounding: str = "",
    ) -> "Scenario":
        """Wrap an existing campaign spec as a scenario.

        Supports classic specs and specs whose extensible axes are the
        scenario-shaped ``pair`` / ``power_policy`` axes; the round trip
        ``to_campaign_spec()`` is verified to reproduce ``spec``'s
        content hash, so facade-routed callers keep their cache keys and
        shard artifacts. (Cosmetic axis labels may be synthesized where
        the spec had none; labels are excluded from the hash.)
        """
        pairs = (RelayPair(label="pair-1"),)
        offsets_db = (0.0,)
        offset_labels = None
        allocations_db = None
        allocation_labels = None
        for axis in spec.extra_axes:
            if axis.name == "pair":
                labels = axis.labels
                if labels is None:
                    labels = tuple(f"pair-{i + 1}" for i in range(len(axis)))
                pairs = tuple(
                    RelayPair(
                        label=label,
                        gain_offsets_db=tuple(
                            value.get("gain_offsets_db", (0.0, 0.0, 0.0))
                        ),
                    )
                    for label, value in zip(labels, axis.values)
                )
            elif axis.name == "power_policy":
                offsets_db = tuple(
                    float(value.get("power_db_offset", 0.0)) for value in axis.values
                )
                offset_labels = axis.labels
            elif axis.name == "power_allocation":
                allocations_db = tuple(
                    tuple(value.get("node_powers_db", (0.0, 0.0, 0.0)))
                    for value in axis.values
                )
                allocation_labels = axis.labels
            else:
                raise InvalidParameterError(
                    f"axis {axis.name!r} cannot be expressed as a scenario"
                )
        if spec.link is not None and objective == "sum_rate":
            # An operational spec's values *are* its link metric; reflect
            # that in the default objective rather than mislabeling them.
            objective = {
                "fer": "operational_fer",
                "latency": "latency_quantiles",
                "stable_throughput": "stable_throughput",
            }.get(spec.link.metric, "operational_goodput")
        if allocations_db is None:
            power = PowerPolicy.uniform(
                powers_db=spec.powers_db,
                offsets_db=offsets_db,
                offset_labels=offset_labels,
            )
        else:
            power = PowerPolicy.per_node(
                spec.powers_db,
                allocations_db,
                labels=allocation_labels,
                offsets_db=offsets_db,
                offset_labels=offset_labels,
            )
        scenario = cls(
            name=name,
            description=description,
            grounding=grounding,
            protocols=spec.protocols,
            topology=Topology(gains=spec.gains, pairs=pairs),
            power=power,
            fading=spec.fading,
            objective=objective,
            link=spec.link,
        )
        if scenario.to_campaign_spec().spec_hash() != spec.spec_hash():
            raise InvalidParameterError(
                "campaign spec does not round-trip through a scenario"
            )
        return scenario
