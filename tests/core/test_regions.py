"""Unit tests for repro.core.regions."""

import numpy as np
import pytest

from repro.core.bounds import dt_capacity, mabc_inner
from repro.core.capacity import achievable_region, outer_bound_region
from repro.core.protocols import Protocol
from repro.core.regions import (
    fixed_duration_polygon,
    polygon_area,
    region_dominates,
)
from repro.exceptions import InvalidParameterError


class TestFixedDurationPolygon:
    def test_mabc_pentagon_vertices_feasible(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        vertices = fixed_duration_polygon(evaluated, (0.5, 0.5))
        caps = evaluated.rate_caps((0.5, 0.5))
        for ra, rb in vertices:
            assert ra <= caps["Ra"] + 1e-9
            assert rb <= caps["Rb"] + 1e-9
            assert ra + rb <= caps["Ra+Rb"] + 1e-9

    def test_dt_rectangle(self, channel_high):
        evaluated = channel_high.evaluate(dt_capacity())
        vertices = fixed_duration_polygon(evaluated, (0.5, 0.5))
        caps = evaluated.rate_caps((0.5, 0.5))
        assert (caps["Ra"], caps["Rb"]) in [
            (pytest.approx(ra), pytest.approx(rb)) for ra, rb in vertices
        ]

    def test_degenerate_duration_collapses(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        vertices = fixed_duration_polygon(evaluated, (1.0, 0.0))
        assert all(
            ra == pytest.approx(0.0) and rb == pytest.approx(0.0)
            for ra, rb in vertices
        )


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)

    def test_triangle(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_degenerate_returns_zero(self):
        assert polygon_area([(0, 0), (1, 1)]) == 0.0


class TestRateRegion:
    def test_boundary_is_pareto_sorted(self, channel_high):
        region = achievable_region(Protocol.HBC, channel_high)
        boundary = region.boundary(17)
        ra = boundary[:, 0]
        rb = boundary[:, 1]
        assert np.all(np.diff(ra) >= -1e-9)
        assert np.all(np.diff(rb) <= 1e-9)

    def test_boundary_point_count_validation(self, channel_high):
        region = achievable_region(Protocol.MABC, channel_high)
        with pytest.raises(InvalidParameterError):
            region.boundary(1)

    def test_corners_match_support(self, channel_high):
        region = achievable_region(Protocol.MABC, channel_high)
        boundary = region.boundary(17)
        assert boundary[-1, 0] == pytest.approx(region.max_ra().ra, abs=1e-6)
        assert boundary[0, 1] == pytest.approx(region.max_rb().rb, abs=1e-6)

    def test_boundary_points_are_members(self, channel_high):
        region = achievable_region(Protocol.TDBC, channel_high)
        for ra, rb in region.boundary(9):
            assert region.contains(ra * 0.999, rb * 0.999, tol=1e-7)

    def test_outside_point_rejected(self, channel_high):
        region = achievable_region(Protocol.TDBC, channel_high)
        best = region.max_sum_rate()
        assert not region.contains(best.ra + 0.2, best.rb + 0.2)

    def test_closed_polygon_starts_and_ends_on_axes(self, channel_high):
        region = achievable_region(Protocol.MABC, channel_high)
        polygon = region.closed_polygon(9)
        assert polygon[0] == pytest.approx((0.0, 0.0))
        assert polygon[-1][1] == pytest.approx(0.0, abs=1e-8)

    def test_area_positive_and_bounded(self, channel_high):
        region = achievable_region(Protocol.MABC, channel_high)
        area = region.area(17)
        corner = region.max_ra().ra * region.max_rb().rb
        assert 0 < area <= corner + 1e-6

    def test_label_passthrough(self, channel_high):
        region = achievable_region(Protocol.TDBC, channel_high)
        assert "Theorem 3" in region.label


class TestWeightedOperatingPoints:
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
    def test_weight_sweep_walks_the_pareto_frontier(self, channel_high, protocol):
        """Raising μ in ``max μ·Ra + (1-μ)·Rb`` trades Rb for Ra, and each
        support point beats every traced boundary point on its own weight
        (up to the LP solver's 1e-7 precision)."""
        region = achievable_region(protocol, channel_high)
        weights = (0.1, 0.3, 0.5, 0.7, 0.9)
        points = [region.support(mu, 1.0 - mu) for mu in weights]
        assert np.all(np.diff([p.ra for p in points]) >= -1e-7)
        assert np.all(np.diff([p.rb for p in points]) <= 1e-7)
        boundary = region.boundary(17)
        for mu, point in zip(weights, points):
            best = mu * point.ra + (1.0 - mu) * point.rb
            traced = mu * boundary[:, 0] + (1.0 - mu) * boundary[:, 1]
            assert best >= traced.max() - 1e-7


class TestRegionDominance:
    def test_inner_within_outer_tdbc(self, channel_high):
        inner = achievable_region(Protocol.TDBC, channel_high)
        outer = outer_bound_region(Protocol.TDBC, channel_high)
        assert region_dominates(outer, inner)

    def test_mabc_within_hbc(self, channel_high):
        mabc = achievable_region(Protocol.MABC, channel_high)
        hbc = achievable_region(Protocol.HBC, channel_high)
        assert region_dominates(hbc, mabc)

    def test_tdbc_within_hbc(self, channel_high):
        tdbc = achievable_region(Protocol.TDBC, channel_high)
        hbc = achievable_region(Protocol.HBC, channel_high)
        assert region_dominates(hbc, tdbc)

    def test_hbc_not_within_mabc_at_high_snr(self, channel_high):
        mabc = achievable_region(Protocol.MABC, channel_high)
        hbc = achievable_region(Protocol.HBC, channel_high)
        assert not region_dominates(mabc, hbc)

    def test_region_contains_itself(self, channel_high):
        region = achievable_region(Protocol.MABC, channel_high)
        assert region_dominates(region, region)
