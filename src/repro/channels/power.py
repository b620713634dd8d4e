"""Per-node transmit powers for the three-node relay channel.

The paper's Section IV model gives every node the same transmit power
``P``; the bidirectional power-allocation literature it opens onto
(finite-SNR DMT and optimum splits of a sum-power budget,
arXiv:0810.2746) needs *asymmetric* powers per node. :class:`NodePowers`
is the canonical container for that: one linear transmit power per node
``a``, ``b``, ``r``, with the uniform case reducing exactly to the
classic scalar ``P``.

Every power-accepting API in this library takes
``float | Mapping[node, float] | NodePowers`` uniformly;
:func:`node_power` is the shared resolver that maps any of those forms
to the transmit power of one named node.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..information.functions import db_to_linear, linear_to_db

__all__ = ["NODE_ORDER", "NodePowers", "node_power"]

#: Canonical node order of every per-node power vector: sources first,
#: relay last — matching the ``(a, b, r)`` convention used throughout.
NODE_ORDER = ("a", "b", "r")


@dataclass(frozen=True)
class NodePowers:
    """Per-node transmit powers ``(P_a, P_b, P_r)``, linear scale.

    Attributes
    ----------
    pa:
        Transmit power of source terminal ``a``.
    pb:
        Transmit power of source terminal ``b``.
    pr:
        Transmit power of the relay ``r``.
    """

    pa: float
    pb: float
    pr: float

    def __post_init__(self) -> None:
        for name, value in (("pa", self.pa), ("pb", self.pb), ("pr", self.pr)):
            object.__setattr__(self, name, float(value))
        for name, value in (("pa", self.pa), ("pb", self.pb), ("pr", self.pr)):
            if not 0 <= value < np.inf:
                raise InvalidParameterError(
                    f"node power {name} must be finite and non-negative, "
                    f"got {value!r}"
                )

    @classmethod
    def uniform(cls, power: float) -> "NodePowers":
        """Every node at the same power — the classic scalar ``P``."""
        power = float(power)
        return cls(pa=power, pb=power, pr=power)

    @classmethod
    def from_db(cls, pa_db: float, pb_db: float, pr_db: float) -> "NodePowers":
        """Construct from per-node powers expressed in decibels."""
        return cls(
            pa=db_to_linear(pa_db),
            pb=db_to_linear(pb_db),
            pr=db_to_linear(pr_db),
        )

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "NodePowers":
        """Construct from a ``{"a": Pa, "b": Pb, "r": Pr}`` mapping."""
        unknown = set(mapping) - set(NODE_ORDER)
        if unknown:
            raise InvalidParameterError(
                f"unknown nodes {sorted(unknown)}; nodes are {NODE_ORDER}"
            )
        missing = set(NODE_ORDER) - set(mapping)
        if missing:
            raise InvalidParameterError(f"missing powers for nodes {sorted(missing)}")
        return cls(pa=mapping["a"], pb=mapping["b"], pr=mapping["r"])

    def power(self, node: str) -> float:
        """Transmit power of one node of ``{'a', 'b', 'r'}``."""
        table = {"a": self.pa, "b": self.pb, "r": self.pr}
        if node not in table:
            raise InvalidParameterError(
                f"unknown node {node!r}; nodes are {NODE_ORDER}"
            )
        return table[node]

    def as_array(self) -> np.ndarray:
        """The powers as a ``(3,)`` float array in :data:`NODE_ORDER`."""
        return np.array([self.pa, self.pb, self.pr])

    def to_db(self) -> tuple:
        """Return ``(P_a, P_b, P_r)`` in decibels."""
        return (linear_to_db(self.pa), linear_to_db(self.pb), linear_to_db(self.pr))

    def is_uniform(self) -> bool:
        """Whether all three powers are exactly equal (the scalar case)."""
        return self.pa == self.pb == self.pr

    @property
    def total(self) -> float:
        """The sum-power budget ``P_a + P_b + P_r``."""
        return self.pa + self.pb + self.pr


def node_power(power, node: str) -> float:
    """Transmit power of ``node`` under any accepted power form.

    ``power`` may be a scalar (every node transmits at that power — the
    paper's model), a ``{"a": ..., "b": ..., "r": ...}`` mapping, or a
    :class:`NodePowers`.
    """
    if isinstance(power, NodePowers):
        return power.power(node)
    if isinstance(power, Mapping):
        return NodePowers.from_mapping(power).power(node)
    if node not in NODE_ORDER:
        raise InvalidParameterError(f"unknown node {node!r}; nodes are {NODE_ORDER}")
    return float(power)
