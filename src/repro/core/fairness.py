"""Fairness analysis: symmetric-rate operating points and fairness indices.

The sum rate (Fig. 3's metric) can hide extreme asymmetry — a protocol may
earn its sum rate almost entirely on the stronger direction. For the
cellular scenario (uplink and downlink both matter) the complementary
questions are:

* what is the best *symmetric* rate ``Ra = Rb`` each protocol supports?
  (:func:`max_equal_rate`, an LP via
  :func:`repro.core.optimize.equal_rate_point`),
* how lopsided is each protocol's *sum-rate-optimal* point?
  (:func:`jain_index`, :func:`fairness_report`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from .bounds import bound_for
from .gaussian import GaussianChannel
from .optimize import RatePoint, equal_rate_point, max_sum_rate
from .protocols import Protocol
from .terms import BoundKind

__all__ = ["jain_index", "max_equal_rate", "FairnessRow", "fairness_report"]


def jain_index(ra: float, rb: float) -> float:
    """Jain's fairness index of a rate pair: ``(Ra+Rb)² / (2(Ra²+Rb²))``.

    1.0 for perfectly symmetric rates, 0.5 when one direction starves.
    Defined as 1.0 at the origin (no traffic is vacuously fair).
    """
    if ra < 0 or rb < 0:
        raise InvalidParameterError(f"rates must be non-negative, got ({ra}, {rb})")
    total_square = ra * ra + rb * rb
    if total_square == 0:
        return 1.0
    return (ra + rb) ** 2 / (2.0 * total_square)


def max_equal_rate(protocol: Protocol, channel: GaussianChannel) -> RatePoint:
    """The best symmetric operating point ``Ra = Rb`` of a protocol."""
    evaluated = channel.evaluate(bound_for(protocol, BoundKind.INNER))
    return equal_rate_point(evaluated)


@dataclass(frozen=True)
class FairnessRow:
    """Fairness metrics of one protocol on one channel.

    Attributes
    ----------
    protocol:
        The protocol evaluated.
    sum_optimal:
        The sum-rate-optimal point (possibly asymmetric).
    equal_rate:
        The best symmetric point.
    """

    protocol: Protocol
    sum_optimal: RatePoint
    equal_rate: RatePoint

    @property
    def sum_point_fairness(self) -> float:
        """Jain's index at the sum-rate-optimal point."""
        return jain_index(self.sum_optimal.ra, self.sum_optimal.rb)

    @property
    def fairness_cost(self) -> float:
        """Sum-rate sacrifice required for perfect symmetry (bits/use)."""
        return self.sum_optimal.sum_rate - self.equal_rate.sum_rate


def fairness_report(
    channel: GaussianChannel,
    *,
    protocols=(
        Protocol.DT, Protocol.NAIVE4, Protocol.MABC, Protocol.TDBC, Protocol.HBC
    ),
) -> list[FairnessRow]:
    """Fairness metrics for every protocol on one channel."""
    rows = []
    for protocol in protocols:
        evaluated = channel.evaluate(bound_for(protocol, BoundKind.INNER))
        rows.append(
            FairnessRow(
                protocol=protocol,
                sum_optimal=max_sum_rate(evaluated),
                equal_rate=equal_rate_point(evaluated),
            )
        )
    return rows
