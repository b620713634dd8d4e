"""Top-level capacity API: one call from channel description to results.

These are the functions a downstream user starts with::

    from repro import GaussianChannel, LinkGains, Protocol
    from repro.core.capacity import achievable_region, optimal_sum_rate

    channel = GaussianChannel.from_db(power_db=10, gab_db=-7, gar_db=0, gbr_db=5)
    region = achievable_region(Protocol.HBC, channel)
    print(optimal_sum_rate(Protocol.HBC, channel).sum_rate)

Everything composes the lower layers: symbolic bounds
(:mod:`repro.core.bounds`) → Gaussian evaluation
(:mod:`repro.core.gaussian`) → LP geometry (:mod:`repro.core.regions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import bound_for
from .gaussian import GaussianChannel
from .optimize import RatePoint
from .protocols import Protocol
from .regions import RateRegion
from .terms import BoundKind

__all__ = [
    "achievable_region",
    "outer_bound_region",
    "optimal_sum_rate",
    "ProtocolComparison",
    "compare_protocols",
]


def achievable_region(protocol: Protocol, channel: GaussianChannel) -> RateRegion:
    """The protocol's achievable (inner-bound) rate region on a channel.

    For DT this is the exact capacity region; for MABC it equals the
    capacity region (Theorem 2); for TDBC and HBC it is the Theorem 3 / 5
    achievable region.
    """
    spec = bound_for(protocol, BoundKind.INNER)
    return RateRegion(evaluated=channel.evaluate(spec))


def outer_bound_region(protocol: Protocol, channel: GaussianChannel) -> RateRegion:
    """The protocol's outer-bound region.

    * DT, MABC: coincides with the achievable region (exact capacity).
    * TDBC: Theorem 4.
    * HBC: Theorem 6 evaluated with independent Gaussian inputs — a proxy,
      not a proven outer bound; see :func:`repro.core.bounds.hbc_outer`.
    """
    spec = bound_for(protocol, BoundKind.OUTER)
    return RateRegion(evaluated=channel.evaluate(spec))


def optimal_sum_rate(protocol: Protocol, channel: GaussianChannel) -> RatePoint:
    """LP-optimal achievable sum rate of the protocol on the channel.

    This is the quantity plotted in the paper's Fig. 3 (inner bounds with
    optimized time periods).
    """
    return achievable_region(protocol, channel).max_sum_rate()


@dataclass(frozen=True)
class ProtocolComparison:
    """Optimal sum rates of every protocol on one channel."""

    channel: GaussianChannel
    sum_rates: dict

    def best_protocol(self) -> Protocol:
        """The protocol with the largest optimal sum rate."""
        return max(self.sum_rates, key=lambda p: self.sum_rates[p].sum_rate)

    def as_row(self) -> dict:
        """Flat mapping protocol name -> sum rate, for tabular reports."""
        return {p.name: point.sum_rate for p, point in self.sum_rates.items()}


def compare_protocols(
    channel: GaussianChannel,
    *,
    protocols=(
        Protocol.DT, Protocol.NAIVE4, Protocol.MABC, Protocol.TDBC, Protocol.HBC
    ),
) -> ProtocolComparison:
    """Optimal sum rate of each protocol.

    Defaults to all five protocols (the paper's four plus the Fig. 1(ii)
    naive baseline); the Fig. 3 harness restricts to the paper's four.
    """
    rates = {protocol: optimal_sum_rate(protocol, channel) for protocol in protocols}
    return ProtocolComparison(channel=channel, sum_rates=rates)
