"""Integration: LP region geometry vs brute-force duration sampling.

The whole geometry layer rests on one claim: the union over Δ of the
fixed-Δ pentagons is convex and its boundary is traced exactly by the
weighted-sum LP. This test validates that claim the expensive way — sample
many durations on the simplex, collect every pentagon vertex, and check
that (a) each sampled vertex lies inside the LP region, and (b) the LP
boundary is not beaten anywhere by the sampled cloud.
"""

import itertools

import numpy as np
import pytest

from repro.core.bounds import bound_for
from repro.core.capacity import achievable_region
from repro.core.protocols import Protocol
from repro.core.regions import fixed_duration_polygon
from repro.core.terms import BoundKind


def simplex_grid(n_phases: int, steps: int):
    """All duration vectors on a regular simplex grid."""
    for combo in itertools.product(range(steps + 1), repeat=n_phases - 1):
        if sum(combo) <= steps:
            tail = steps - sum(combo)
            yield tuple(c / steps for c in combo) + (tail / steps,)


@pytest.mark.parametrize(
    "protocol,steps",
    [
        (Protocol.MABC, 40),
        (Protocol.TDBC, 12),
        (Protocol.HBC, 6),
    ],
)
def test_lp_region_dominates_sampled_pentagons(protocol, steps, channel_high):
    spec = bound_for(protocol, BoundKind.INNER)
    evaluated = channel_high.evaluate(spec)
    region = achievable_region(protocol, channel_high)

    cloud = []
    for durations in simplex_grid(spec.n_phases, steps):
        for ra, rb in fixed_duration_polygon(evaluated, durations):
            cloud.append((ra, rb))
    cloud_arr = np.asarray(cloud)

    # (a) every sampled achievable point is inside the LP region.
    sample_idx = np.linspace(0, len(cloud) - 1, 25, dtype=int)
    for ra, rb in cloud_arr[sample_idx]:
        assert region.contains(ra * 0.999, rb * 0.999, tol=1e-7), (
            f"sampled point ({ra}, {rb}) outside the LP region"
        )

    # (b) no sampled point beats the LP boundary in any weight direction.
    boundary = region.boundary(17)
    for theta in np.linspace(0.1, np.pi / 2 - 0.1, 7):
        mu = np.array([np.cos(theta), np.sin(theta)])
        lp_value = float((boundary @ mu).max())
        cloud_value = float((cloud_arr @ mu).max())
        assert cloud_value <= lp_value + 1e-7, (
            f"duration grid beats the LP at weight {mu}: "
            f"{cloud_value} > {lp_value}"
        )


def test_time_sharing_convexifies(channel_high):
    """A 50/50 time share of two sampled operating points is achievable."""
    evaluated = channel_high.evaluate(bound_for(Protocol.MABC, BoundKind.INNER))
    region = achievable_region(Protocol.MABC, channel_high)
    caps_1 = evaluated.rate_caps((0.8, 0.2))
    caps_2 = evaluated.rate_caps((0.3, 0.7))
    point_1 = (caps_1["Ra"], min(caps_1["Rb"], caps_1["Ra+Rb"] - caps_1["Ra"]))
    point_2 = (caps_2["Ra"], min(caps_2["Rb"], caps_2["Ra+Rb"] - caps_2["Ra"]))
    midpoint = (0.5 * (point_1[0] + point_2[0]), 0.5 * (point_1[1] + point_2[1]))
    assert region.contains(midpoint[0] * 0.999, midpoint[1] * 0.999, tol=1e-7)
