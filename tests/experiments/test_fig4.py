"""Unit tests for the Fig. 4 harness (reduced boundary resolution)."""

import pytest

from repro.core import optimize
from repro.core.capacity import achievable_region, outer_bound_region
from repro.core.protocols import Protocol
from repro.experiments.config import Fig4Config
from repro.experiments.fig4 import TRACE_KEYS, fig4_shape_checks, run_fig4


@pytest.fixture(scope="module")
def low_snr():
    return run_fig4(Fig4Config(power_db=0.0, boundary_points=9))


@pytest.fixture(scope="module")
def high_snr():
    return run_fig4(Fig4Config(power_db=10.0, boundary_points=9))


class TestTraces:
    def test_all_curves_present(self, high_snr):
        assert set(high_snr.traces) == set(TRACE_KEYS)

    def test_boundaries_nonempty(self, high_snr):
        for trace in high_snr.traces.values():
            assert trace.boundary.shape[0] >= 2
            assert trace.boundary.shape[1] == 2

    def test_summary_scalars_consistent(self, high_snr):
        for trace in high_snr.traces.values():
            assert trace.max_ra >= 0
            assert trace.max_rb >= 0
            assert trace.max_sum_rate <= trace.max_ra + trace.max_rb + 1e-6
            assert trace.area >= 0

    def test_hbc_largest_area(self, high_snr):
        hbc_area = high_snr.traces["HBC"].area
        for key in ("DT", "MABC", "TDBC inner"):
            assert hbc_area >= high_snr.traces[key].area - 1e-9

    def test_tdbc_outer_contains_inner_area(self, high_snr):
        assert (
            high_snr.traces["TDBC outer"].area
            >= high_snr.traces["TDBC inner"].area - 1e-9
        )

    def test_area_is_the_region_area(self):
        config = Fig4Config(power_db=10.0, boundary_points=5)
        trace = run_fig4(config).trace("HBC")
        region = achievable_region(Protocol.HBC, config.channel())
        assert trace.area == region.area(config.boundary_points)


class TestLpBudget:
    def test_each_boundary_is_traced_once(self, monkeypatch):
        """The area comes from the traced boundary, not from a second sweep:
        a panel costs one trace and one max-sum LP per curve, plus at most
        two membership LPs per HBC boundary point."""
        calls = []
        solve_lp = optimize.solve_lp

        def counting_solve_lp(problem):
            calls.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(optimize, "solve_lp", counting_solve_lp)
        config = Fig4Config(power_db=10.0, boundary_points=5)
        result = run_fig4(config)
        panel_calls = len(calls)

        calls.clear()
        channel = config.channel()
        for region in (
            achievable_region(Protocol.DT, channel),
            achievable_region(Protocol.MABC, channel),
            achievable_region(Protocol.TDBC, channel),
            outer_bound_region(Protocol.TDBC, channel),
            achievable_region(Protocol.HBC, channel),
        ):
            region.boundary(config.boundary_points)
        one_trace_each = len(calls)

        hbc_points = len(result.trace("HBC").boundary)
        assert panel_calls <= one_trace_each + len(TRACE_KEYS) + 2 * hbc_points


class TestHeadlineResult:
    def test_hbc_points_outside_at_high_snr(self, high_snr):
        assert len(high_snr.hbc_points_outside_both) > 0

    def test_outside_points_have_positive_rates(self, high_snr, low_snr):
        # The headline set may be non-empty at either SNR (the paper says
        # "in some cases"); whenever present the points must be interior.
        for result in (high_snr, low_snr):
            for ra, rb in result.hbc_points_outside_both:
                assert ra > 0
                assert rb > 0


class TestShapeChecks:
    def test_all_pass(self, low_snr, high_snr):
        checks = fig4_shape_checks(low_snr, high_snr)
        failing = [name for name, ok in checks.items() if not ok]
        assert not failing, f"failed shape checks: {failing}"
