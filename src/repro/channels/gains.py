"""Link gain containers for the three-node bidirectional relay channel.

Section IV of the paper models each link between nodes ``i`` and ``j`` with
an *effective complex channel gain* ``g_ij`` combining quasi-static fading
and path loss, and works with the received-power gains
``G_ij := |g_ij|^2``. Channels are reciprocal (``g_ij = g_ji``), every node
transmits with the same power ``P`` and the noise has unit power, so the
receive SNR on link ``i -> j`` is simply ``P * G_ij``.

The paper focuses on the regime ``G_ab <= G_ar <= G_br`` ("the interesting
case": the direct link is the weakest and the relay is closer to ``b``).
:meth:`LinkGains.is_paper_regime` tests for it; the library itself works for
arbitrary positive gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear, linear_to_db

__all__ = ["LinkGains"]


@dataclass(frozen=True)
class LinkGains:
    """Received-power gains ``G_ab``, ``G_ar``, ``G_br`` of the three links.

    All gains are linear (not dB) and must be finite and strictly positive.
    Reciprocity is built in: the gain of ``a -> r`` equals that of
    ``r -> a``, etc.

    Attributes
    ----------
    gab:
        Direct-link gain between terminals ``a`` and ``b``.
    gar:
        Gain between terminal ``a`` and relay ``r``.
    gbr:
        Gain between terminal ``b`` and relay ``r``.
    """

    gab: float
    gar: float
    gbr: float

    def __post_init__(self) -> None:
        for name, value in (("gab", self.gab), ("gar", self.gar), ("gbr", self.gbr)):
            if not 0 < value < math.inf:
                raise InvalidParameterError(
                    f"link gain {name} must be finite and strictly positive, "
                    f"got {value!r}"
                )

    @classmethod
    def from_db(cls, gab_db: float, gar_db: float, gbr_db: float) -> "LinkGains":
        """Construct from gains expressed in decibels."""
        return cls(
            gab=db_to_linear(gab_db),
            gar=db_to_linear(gar_db),
            gbr=db_to_linear(gbr_db),
        )

    def to_db(self) -> tuple[float, float, float]:
        """Return ``(G_ab, G_ar, G_br)`` in decibels."""
        return (linear_to_db(self.gab), linear_to_db(self.gar), linear_to_db(self.gbr))

    def gain(self, node_i: str, node_j: str) -> float:
        """Gain of the (reciprocal) link between two of ``{'a', 'b', 'r'}``."""
        key = frozenset((node_i, node_j))
        table = {
            frozenset(("a", "b")): self.gab,
            frozenset(("a", "r")): self.gar,
            frozenset(("b", "r")): self.gbr,
        }
        if key not in table:
            raise InvalidParameterError(
                f"unknown link {node_i!r} -- {node_j!r}; nodes are 'a', 'b', 'r'"
            )
        return table[key]

    def snr(self, node_i: str, node_j: str, power) -> float:
        """Receive SNR ``P_i * G_ij`` of link ``i -> j``.

        ``power`` may be a scalar shared by every node (the paper's
        model), a ``{"a": ..., "b": ..., "r": ...}`` mapping, or a
        :class:`~repro.channels.power.NodePowers`; per-node forms use the
        *transmitter*'s power ``P_i``.
        """
        from .power import node_power

        transmit_power = node_power(power, node_i)
        if transmit_power < 0:
            raise InvalidParameterError(
                f"power must be non-negative, got {transmit_power}"
            )
        return transmit_power * self.gain(node_i, node_j)

    def is_paper_regime(self) -> bool:
        """Whether ``G_ab <= G_ar <= G_br`` (the paper's standing assumption)."""
        return self.gab <= self.gar <= self.gbr

    def swapped_terminals(self) -> "LinkGains":
        """The same channel with the roles of ``a`` and ``b`` exchanged."""
        return LinkGains(gab=self.gab, gar=self.gbr, gbr=self.gar)

    def scaled(self, factor: float) -> "LinkGains":
        """All gains multiplied by ``factor > 0`` (e.g. a shadowing offset)."""
        if not factor > 0:
            raise InvalidParameterError(f"scale factor must be positive, got {factor}")
        return LinkGains(self.gab * factor, self.gar * factor, self.gbr * factor)
