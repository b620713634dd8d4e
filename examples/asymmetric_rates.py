"""Asymmetric traffic: unequal uplink/downlink rates through the relay.

Run with::

    python examples/asymmetric_rates.py

Bidirectional traffic is rarely symmetric — a mobile uploads less than it
downloads. Sweeping the weight μ in ``max μ·Ra + (1-μ)·Rb`` walks each
protocol's Pareto frontier, exposing how MABC/TDBC/HBC trade the two
directions differently.
"""

from repro.channels.gains import LinkGains
from repro.core.capacity import achievable_region
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.experiments.tables import render_table

GAINS = LinkGains.from_db(-7.0, 0.0, 10.0)
POWER_DB = 12.0


def weighted_operating_points() -> None:
    channel = GaussianChannel(gains=GAINS, power=10 ** (POWER_DB / 10))
    weights = (0.9, 0.7, 0.5, 0.3, 0.1)
    for protocol in (Protocol.MABC, Protocol.TDBC, Protocol.HBC):
        region = achievable_region(protocol, channel)
        rows = []
        for mu in weights:
            point = region.support(mu, 1.0 - mu)
            rows.append([mu, point.ra, point.rb, point.ra / max(point.rb, 1e-12)])
        print(render_table(
            ["weight on Ra", "Ra", "Rb", "Ra/Rb"],
            rows,
            title=f"{protocol.name}: weighted-rate operating points "
                  f"(P={POWER_DB:g} dB)",
        ))
        print()


if __name__ == "__main__":
    weighted_operating_points()
