"""Integration: engine-LP boundaries == core-LP boundaries.

The outer-bound boundary can be computed two ways: through the hand-coded
theorem pipeline (`RateRegion` over `GaussianChannel.evaluate`) and through
the mechanical pipeline (Lemma-1 engine + `cutset_boundary`). Both must
produce the same curve — the full-stack version of the per-constraint
cross-checks in the property tests.
"""

import numpy as np
import pytest

from repro.core.capacity import outer_bound_region
from repro.core.cutset_lp import cutset_boundary, cutset_max_sum_rate
from repro.core.protocols import Protocol, protocol_schedule
from repro.network.cutset import GaussianMIOracle, cutset_outer_bound
from repro.network.model import bidirectional_relay_network


@pytest.mark.parametrize(
    "protocol,n_phases",
    [
        (Protocol.MABC, 2),
        (Protocol.TDBC, 3),
        (Protocol.HBC, 4),
        (Protocol.NAIVE4, 4),
    ],
)
class TestBoundaryEquivalence:
    def test_boundaries_match(self, protocol, n_phases, channel_high):
        constraints = cutset_outer_bound(
            bidirectional_relay_network(),
            protocol_schedule(protocol),
            GaussianMIOracle(gains=channel_high.gains, power=channel_high.power),
        )
        engine_boundary = cutset_boundary(constraints, n_phases, n_points=9)
        core_boundary = outer_bound_region(protocol, channel_high).boundary(9)
        # Compare as supporting values per weight direction: both are exact
        # LP solutions of the same feasible set.
        for theta in np.linspace(0.05, np.pi / 2 - 0.05, 5):
            mu = np.array([np.cos(theta), np.sin(theta)])
            engine_value = (engine_boundary @ mu).max()
            core_value = (core_boundary @ mu).max()
            assert engine_value == pytest.approx(core_value, abs=1e-6)

    def test_sum_rates_match(self, protocol, n_phases, channel_low):
        constraints = cutset_outer_bound(
            bidirectional_relay_network(),
            protocol_schedule(protocol),
            GaussianMIOracle(gains=channel_low.gains, power=channel_low.power),
        )
        engine_point = cutset_max_sum_rate(constraints, n_phases)
        core_point = outer_bound_region(protocol, channel_low).max_sum_rate()
        assert engine_point.sum_rate == pytest.approx(core_point.sum_rate, abs=1e-7)
