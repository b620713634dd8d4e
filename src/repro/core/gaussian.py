"""Gaussian (AWGN + path loss) evaluation of the symbolic bounds.

Section IV of the paper: all nodes transmit with power ``P``, noise is
unit-power circularly-symmetric complex Gaussian, link gains are
``G_ij = |g_ij|^2`` and ``C(x) = log2(1 + x)``. A per-phase Gaussian input
maximizes each mutual-information term individually (the paper's
justification for taking ``|Q| = 1`` in (22)–(23)), giving the closed-form
table implemented by :meth:`GaussianChannel.mi_value`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..channels.gains import LinkGains
from ..channels.power import NodePowers
from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear, gaussian_capacity
from .protocols import protocol_phases
from .terms import BoundSpec, MiKey, transmitter_for

__all__ = ["GaussianChannel", "EvaluatedBound", "EvaluatedConstraint"]

#: Which node's transmit power may drive each MI term, and the default
#: (terminal-transmitter) choice used when no phase context is given.
_TERM_TRANSMITTERS = {
    MiKey.LINK_AR: ("a", "r"),
    MiKey.LINK_BR: ("b", "r"),
    MiKey.LINK_AB: ("a", "b"),
    MiKey.MAC_SUM: ("ab",),
    MiKey.CUT_A_RB: ("a",),
    MiKey.CUT_B_RA: ("b",),
}


@dataclass(frozen=True)
class EvaluatedConstraint:
    """A numeric constraint ``sum(rates) <= coefficients @ Δ``.

    Attributes
    ----------
    rates:
        Rate names on the left-hand side.
    coefficients:
        Per-phase numeric MI coefficients (bits), length = protocol phases.
    """

    rates: tuple
    coefficients: tuple

    def bound_at(self, durations) -> float:
        """Right-hand side value at concrete durations."""
        durations = tuple(durations)
        if len(durations) != len(self.coefficients):
            raise InvalidParameterError(
                f"expected {len(self.coefficients)} durations, got {len(durations)}"
            )
        return float(sum(d * c for d, c in zip(durations, self.coefficients)))


@dataclass(frozen=True)
class EvaluatedBound:
    """A bound spec with numeric per-phase coefficients for one channel.

    Produced by :meth:`GaussianChannel.evaluate`; consumed by the region and
    optimization code in :mod:`repro.core.regions` /
    :mod:`repro.core.optimize`.
    """

    spec: BoundSpec
    constraints: tuple

    @property
    def n_phases(self) -> int:
        """Number of protocol phases (= length of the duration vector)."""
        return self.spec.n_phases

    def constraints_for(self, rates: tuple) -> list[EvaluatedConstraint]:
        """All constraints whose left-hand side is exactly ``rates``."""
        target = tuple(sorted(rates))
        return [c for c in self.constraints if tuple(sorted(c.rates)) == target]

    def rate_caps(self, durations) -> dict:
        """``{"Ra": cap, "Rb": cap, "Ra+Rb": cap}`` at fixed durations.

        Missing constraint families yield ``inf`` caps (e.g. DT has no
        sum-rate constraint).
        """
        caps = {"Ra": float("inf"), "Rb": float("inf"), "Ra+Rb": float("inf")}
        for constraint in self.constraints:
            key = "+".join(sorted(constraint.rates))
            value = constraint.bound_at(durations)
            caps[key] = min(caps.get(key, float("inf")), value)
        return caps


@dataclass(frozen=True)
class GaussianChannel:
    """An AWGN bidirectional relay channel instance: gains plus power.

    Attributes
    ----------
    gains:
        Reciprocal link gains ``G_ab, G_ar, G_br`` (linear).
    power:
        Transmit power (linear; noise power is one). A scalar is the
        paper's common per-node power ``P``; a
        :class:`~repro.channels.power.NodePowers` (or a
        ``{"a": ..., "b": ..., "r": ...}`` mapping, normalized on
        construction) gives each node its own power. Equal per-node
        powers evaluate bitwise-identically to the scalar.
    """

    gains: LinkGains
    power: float | NodePowers

    def __post_init__(self) -> None:
        power = self.power
        if isinstance(power, Mapping):
            power = NodePowers.from_mapping(power)
            object.__setattr__(self, "power", power)
        if isinstance(power, NodePowers):
            return  # NodePowers validates each node's power itself
        if not 0 <= power < np.inf:
            raise InvalidParameterError(
                f"power must be finite and non-negative, got {power}"
            )

    @classmethod
    def from_db(
        cls, *, power_db: float, gab_db: float, gar_db: float, gbr_db: float
    ) -> "GaussianChannel":
        """Construct with every quantity in decibels."""
        return cls(
            gains=LinkGains.from_db(gab_db, gar_db, gbr_db),
            power=db_to_linear(power_db),
        )

    def snr(self, link: MiKey, transmitter: str | None = None) -> float:
        """Receive SNR of the term's effective channel (linear).

        Under a scalar power ``transmitter`` is irrelevant (reciprocity).
        Under per-node powers each term is driven by its transmitting
        node's power; ``transmitter`` selects the direction of a
        single-link term (defaulting to the terminal end: ``a`` drives
        ``a-r``, ``a-b`` and ``a-rb``; ``b`` drives ``b-r`` and
        ``b-ra``), with ``"r"`` selecting the relay's rebroadcast use of
        a relay link.
        """
        g = self.gains
        p = self.power
        allowed = _TERM_TRANSMITTERS[link]
        if transmitter is not None and transmitter not in allowed:
            raise InvalidParameterError(
                f"term {link.value!r} cannot be driven by {transmitter!r}; "
                f"allowed transmitters: {allowed}"
            )
        if not isinstance(p, NodePowers):
            table = {
                MiKey.LINK_AR: p * g.gar,
                MiKey.LINK_BR: p * g.gbr,
                MiKey.LINK_AB: p * g.gab,
                MiKey.MAC_SUM: p * (g.gar + g.gbr),
                MiKey.CUT_A_RB: p * (g.gar + g.gab),
                MiKey.CUT_B_RA: p * (g.gbr + g.gab),
            }
            return table[link]
        if link is MiKey.MAC_SUM:
            # Factored form when the source powers agree, so uniform
            # per-node powers reproduce the scalar table bit for bit.
            if p.pa == p.pb:
                return p.pa * (g.gar + g.gbr)
            return p.pa * g.gar + p.pb * g.gbr
        node = transmitter if transmitter is not None else allowed[0]
        effective_gain = {
            MiKey.LINK_AR: g.gar,
            MiKey.LINK_BR: g.gbr,
            MiKey.LINK_AB: g.gab,
            MiKey.CUT_A_RB: g.gar + g.gab,
            MiKey.CUT_B_RA: g.gbr + g.gab,
        }[link]
        return p.power(node) * effective_gain

    def mi_value(self, key: MiKey, transmitter: str | None = None) -> float:
        """Per-phase mutual information (bits/use) of a symbolic term."""
        return gaussian_capacity(self.snr(key, transmitter))

    def mi_values(self) -> dict:
        """All term values as a dict keyed by :class:`MiKey`.

        Under per-node powers the values use the default
        terminal-transmitter direction of each term (see :meth:`snr`).
        """
        return {key: self.mi_value(key) for key in MiKey}

    def evaluate(self, spec: BoundSpec) -> EvaluatedBound:
        """Assign Gaussian values to a symbolic bound.

        Under asymmetric per-node powers each constraint term draws on
        the power of the node actually transmitting in its phase
        (resolved through the protocol's phase schedule); scalar and
        uniform per-node powers use the phase-independent table, which
        is the same thing (reciprocity) computed bitwise-identically.
        """
        if isinstance(self.power, NodePowers) and not self.power.is_uniform():
            phases = protocol_phases(spec.protocol)
            evaluated = tuple(
                EvaluatedConstraint(
                    rates=c.rates,
                    coefficients=tuple(
                        self._directional_coefficients(c.form, spec.n_phases, phases)
                    ),
                )
                for c in spec.constraints
            )
            return EvaluatedBound(spec=spec, constraints=evaluated)
        values = self.mi_values()
        evaluated = tuple(
            EvaluatedConstraint(
                rates=c.rates,
                coefficients=tuple(c.form.coefficients(spec.n_phases, values)),
            )
            for c in spec.constraints
        )
        return EvaluatedBound(spec=spec, constraints=evaluated)

    def _directional_coefficients(self, form, n_phases: int, phases) -> list:
        """Per-phase coefficients with phase-resolved transmitters."""
        coeffs = [0.0] * n_phases
        for p, k in form.terms:
            tx = transmitter_for(k, phases[p])
            coeffs[p] += self.mi_value(k, transmitter=tx if len(tx) == 1 else None)
        return coeffs

    def with_power(self, power) -> "GaussianChannel":
        """The same channel at a different transmit power (any form)."""
        return GaussianChannel(gains=self.gains, power=power)

    def with_gains(self, gains: LinkGains) -> "GaussianChannel":
        """The same power applied to different link gains (fading draws)."""
        return GaussianChannel(gains=gains, power=self.power)

    def describe(self) -> str:
        """One-line summary with dB quantities for reports."""
        gab_db, gar_db, gbr_db = self.gains.to_db()
        if isinstance(self.power, NodePowers):
            pa_db, pb_db, pr_db = self.power.to_db()
            power_text = f"P_a={pa_db:.1f}/P_b={pb_db:.1f}/P_r={pr_db:.1f} dB"
        else:
            power_db = (
                10.0 * np.log10(self.power) if self.power > 0 else float("-inf")
            )
            power_text = f"P={power_db:.1f} dB"
        return (
            f"{power_text}, G_ab={gab_db:.1f} dB, "
            f"G_ar={gar_db:.1f} dB, G_br={gbr_db:.1f} dB"
        )
