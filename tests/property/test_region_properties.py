"""Property-based tests of the rate-region geometry on random channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.gains import LinkGains
from repro.core.capacity import (
    achievable_region,
    optimal_sum_rate,
    outer_bound_region,
)
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_channel(seed: int) -> GaussianChannel:
    rng = np.random.default_rng(seed)
    gains = LinkGains.from_db(
        float(rng.uniform(-12, 8)),
        float(rng.uniform(-8, 12)),
        float(rng.uniform(-8, 12)),
    )
    power_db = float(rng.uniform(-5, 18))
    return GaussianChannel(gains=gains, power=10 ** (power_db / 10))


class TestProtocolNesting:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_hbc_sum_rate_dominates(self, seed):
        """MABC and TDBC are zero-duration special cases of HBC."""
        channel = random_channel(seed)
        hbc = optimal_sum_rate(Protocol.HBC, channel).sum_rate
        assert hbc >= optimal_sum_rate(Protocol.MABC, channel).sum_rate - 1e-7
        assert hbc >= optimal_sum_rate(Protocol.TDBC, channel).sum_rate - 1e-7

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_outer_dominates_inner_sum_rate(self, seed):
        channel = random_channel(seed)
        for protocol in (Protocol.TDBC, Protocol.HBC):
            inner = optimal_sum_rate(protocol, channel).sum_rate
            outer = outer_bound_region(protocol, channel).max_sum_rate().sum_rate
            assert outer >= inner - 1e-7

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_power_monotonicity(self, seed):
        channel = random_channel(seed)
        bigger = channel.with_power(channel.power * 2.0)
        for protocol in Protocol:
            bigger_rate = optimal_sum_rate(protocol, bigger).sum_rate
            assert bigger_rate >= optimal_sum_rate(protocol, channel).sum_rate - 1e-9


class TestRegionGeometry:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_boundary_points_feasible(self, seed):
        channel = random_channel(seed)
        region = achievable_region(Protocol.MABC, channel)
        for ra, rb in region.boundary(7):
            assert region.contains(ra * 0.999, rb * 0.999, tol=1e-7)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_convexity_midpoints(self, seed):
        """Time sharing makes the union region convex."""
        channel = random_channel(seed)
        region = achievable_region(Protocol.TDBC, channel)
        boundary = region.boundary(7)
        for i in range(len(boundary) - 1):
            mid = 0.5 * (boundary[i] + boundary[i + 1])
            assert region.contains(mid[0] * 0.999, mid[1] * 0.999, tol=1e-7)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_scaling_down_stays_inside(self, seed):
        channel = random_channel(seed)
        region = achievable_region(Protocol.HBC, channel)
        best = region.max_sum_rate()
        for factor in (0.2, 0.5, 0.9):
            assert region.contains(best.ra * factor, best.rb * factor)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_sum_rate_consistent_with_support(self, seed):
        channel = random_channel(seed)
        region = achievable_region(Protocol.MABC, channel)
        best = region.max_sum_rate()
        support = region.support(1.0, 1.0)
        assert best.sum_rate == pytest.approx(support.sum_rate, abs=1e-7)


class TestTerminalSymmetry:
    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_swapping_terminals_preserves_sum_rate(self, seed):
        """Relabeling a <-> b cannot change the optimal sum rate."""
        channel = random_channel(seed)
        swapped = GaussianChannel(
            gains=channel.gains.swapped_terminals(), power=channel.power
        )
        for protocol in Protocol:
            original = optimal_sum_rate(protocol, channel).sum_rate
            mirrored = optimal_sum_rate(protocol, swapped).sum_rate
            assert original == pytest.approx(mirrored, abs=1e-7)
