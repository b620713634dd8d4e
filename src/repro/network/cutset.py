"""The Lemma-1 cut-set bound engine.

Lemma 1 of the paper: if rates ``{R_{i,j}}`` are achievable for a protocol
with relative phase durations ``{Δ_ℓ}``, then for every cut ``S``::

    R_{S,S^c} <= sum_ℓ Δ_ℓ · I(X_S^(ℓ); Y_{S^c}^(ℓ) | X_{S^c}^(ℓ), Q)

In a half-duplex protocol where only the nodes in ``T_ℓ`` transmit during
phase ``ℓ`` (everyone else holds the ``∅`` symbol), the mutual-information
term collapses: inputs exist only for transmitters, outputs only for
listeners, so with ``A = S ∩ T_ℓ`` (cut-side transmitters),
``B = S^c \\ T_ℓ`` (far-side listeners) and ``C = S^c ∩ T_ℓ`` (far-side
transmitters, conditioned away)::

    I(X_S; Y_{S^c} | X_{S^c}) = I(X_A; Y_B | X_C)

This module mechanically generates one linear constraint per cut from a
protocol schedule and a mutual-information oracle. For the Gaussian oracle
below (independent per-phase Gaussian inputs, full CSI, unit noise) the
engine reproduces, term by term, the outer bounds of Theorems 2, 4 and 6 —
the unit tests assert exactly that against the hand-coded theorem builders
in :mod:`repro.core.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol as TypingProtocol

import numpy as np

from ..channels.gains import LinkGains
from ..exceptions import InvalidParameterError, InvalidProtocolError
from .cuts import cuts_with_crossing_rate
from .model import NetworkModel

__all__ = [
    "PhaseSpec",
    "ProtocolSchedule",
    "MutualInformationOracle",
    "GaussianMIOracle",
    "CutConstraint",
    "cutset_outer_bound",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a half-duplex protocol: who transmits.

    Attributes
    ----------
    transmitters:
        The nodes transmitting in this phase; everyone else listens.
    label:
        Human-readable phase name for reports.
    """

    transmitters: frozenset
    label: str = ""

    def __init__(self, transmitters, label: str = "") -> None:
        object.__setattr__(self, "transmitters", frozenset(transmitters))
        object.__setattr__(self, "label", label or "+".join(sorted(transmitters)))
        if not self.transmitters:
            raise InvalidProtocolError("a phase needs at least one transmitter")


@dataclass(frozen=True)
class ProtocolSchedule:
    """An ordered list of phases over a node set."""

    nodes: tuple
    phases: tuple

    def __init__(self, nodes, phases) -> None:
        node_tuple = tuple(nodes)
        phase_tuple = tuple(phases)
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "phases", phase_tuple)
        if not phase_tuple:
            raise InvalidProtocolError("a protocol needs at least one phase")
        node_set = set(node_tuple)
        for phase in phase_tuple:
            if not phase.transmitters <= node_set:
                raise InvalidProtocolError(
                    f"phase {phase.label!r} transmitters {sorted(phase.transmitters)} "
                    f"are not all in the node set {sorted(node_set)}"
                )

    @property
    def n_phases(self) -> int:
        """Number of phases."""
        return len(self.phases)


class MutualInformationOracle(TypingProtocol):
    """Evaluates the collapsed per-phase MI term ``I(X_A; Y_B | X_C)``."""

    def mutual_information(
        self,
        phase_index: int,
        sources: frozenset,
        listeners: frozenset,
        conditioned: frozenset,
    ) -> float:
        """MI in bits for phase ``phase_index``; 0 if either set is empty."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class GaussianMIOracle:
    """Gaussian evaluation of the collapsed cut MI terms.

    Assumes independent per-phase complex Gaussian inputs of power ``power``
    at every node, unit-power noise and full CSI — the evaluation model of
    Section IV. With ``A`` the cut-side transmitters and ``B`` the far-side
    listeners, the term is the log-det of the SIMO/MIMO Gram matrix::

        I(X_A; Y_B | X_C) = log2 det( I_|B| + P * sum_{i in A} h_i h_i^H )

    where ``h_i[j] = g_{ij}`` for ``j in B``. Conditioning on ``X_C``
    removes the far-side transmitters' (known) contribution, so ``C`` does
    not appear in the value — exactly the simplification the paper performs
    in (9)–(15).

    Note: with *correlated* inputs (allowed by Theorem 6's
    ``p^(3)(x_a, x_b | q)``) the true bound can be larger; this oracle is
    the independent-input evaluation, which is exact for Theorems 2 and 4
    and a documented proxy for Theorem 6.
    """

    gains: LinkGains
    power: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise InvalidParameterError(f"power must be non-negative, got {self.power}")

    def mutual_information(
        self,
        phase_index: int,
        sources: frozenset,
        listeners: frozenset,
        conditioned: frozenset,
    ) -> float:
        """See :class:`MutualInformationOracle`."""
        if not sources or not listeners:
            return 0.0
        listener_list = sorted(listeners)
        gram = np.eye(len(listener_list))
        for source in sorted(sources):
            h = np.array([np.sqrt(self.gains.gain(source, j)) for j in listener_list])
            gram = gram + self.power * np.outer(h, h)
        sign, logdet = np.linalg.slogdet(gram)
        if sign <= 0:  # pragma: no cover - Gram matrices are PD by construction
            raise InvalidParameterError("non-positive-definite Gram matrix")
        return float(logdet / np.log(2.0))


@dataclass(frozen=True)
class CutConstraint:
    """One linear cut-set constraint.

    Encodes ``sum of rates of `message_names` <= sum_ℓ Δ_ℓ * phase_mi[ℓ]``.

    Attributes
    ----------
    cut:
        The node subset ``S`` generating the constraint.
    message_names:
        Names of the messages whose rates add on the left-hand side.
    phase_mi:
        Per-phase MI coefficients (bits) multiplying the durations ``Δ_ℓ``.
    """

    cut: frozenset
    message_names: tuple
    phase_mi: tuple

    def bound_value(self, durations) -> float:
        """Right-hand side evaluated at concrete phase durations."""
        durations = tuple(durations)
        if len(durations) != len(self.phase_mi):
            raise InvalidParameterError(
                f"expected {len(self.phase_mi)} durations, got {len(durations)}"
            )
        return float(sum(d * mi for d, mi in zip(durations, self.phase_mi)))


def cutset_outer_bound(
    network: NetworkModel, schedule: ProtocolSchedule, oracle: MutualInformationOracle
) -> list[CutConstraint]:
    """Generate every non-vacuous Lemma-1 constraint for the protocol.

    Parameters
    ----------
    network:
        Nodes and messages (with multi-destination semantics for DF).
    schedule:
        The protocol's phases (transmitter sets, in order).
    oracle:
        Per-phase mutual-information evaluator.

    Returns
    -------
    list[CutConstraint]
        One constraint per cut crossed by at least one message, in the
        deterministic cut-enumeration order.
    """
    if set(network.nodes) != set(schedule.nodes):
        raise InvalidProtocolError(
            f"network nodes {sorted(network.nodes)} differ from schedule nodes "
            f"{sorted(schedule.nodes)}"
        )
    constraints = []
    all_nodes = network.node_set
    for cut, crossing in cuts_with_crossing_rate(network):
        complement = all_nodes - cut
        mi_per_phase = []
        for index, phase in enumerate(schedule.phases):
            sources = cut & phase.transmitters
            listeners = complement - phase.transmitters
            conditioned = complement & phase.transmitters
            mi_per_phase.append(
                oracle.mutual_information(
                    index,
                    frozenset(sources),
                    frozenset(listeners),
                    frozenset(conditioned),
                )
            )
        constraints.append(
            CutConstraint(
                cut=cut,
                message_names=tuple(m.name for m in crossing),
                phase_mi=tuple(mi_per_phase),
            )
        )
    return constraints
