"""Unit tests for repro.core.optimize (the phase-duration LP)."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.bounds import dt_capacity, hbc_inner, mabc_inner, tdbc_inner
from repro.core.optimize import (
    equal_rate_point,
    feasible_rate_pair,
    max_sum_rate,
    sum_rate_fixed_durations,
    support_point,
)
from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.information.functions import gaussian_capacity


class TestSupportPoint:
    def test_weights_validated(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        with pytest.raises(InvalidParameterError):
            support_point(evaluated, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            support_point(evaluated, -1.0, 1.0)

    def test_durations_form_simplex(self, channel_high):
        evaluated = channel_high.evaluate(hbc_inner())
        point = support_point(evaluated, 1.0, 2.0)
        assert sum(point.durations) == pytest.approx(1.0)
        assert all(d >= 0 for d in point.durations)

    def test_lexicographic_corner(self, channel_high):
        # mu = (1, 0): maximal Ra; for MABC the max-Ra point allows Rb > 0
        # only if durations permit; lex stage must still return max Ra.
        evaluated = channel_high.evaluate(mabc_inner())
        corner = support_point(evaluated, 1.0, 0.0)
        plain = support_point(evaluated, 1.0, 1e-9)
        assert corner.ra == pytest.approx(plain.ra, abs=1e-5)

    @pytest.mark.parametrize("bound", [dt_capacity, mabc_inner, tdbc_inner, hbc_inner])
    def test_lexicographic_stage_keeps_the_optimum(self, channel_high, bound):
        """The tie-breaking second LP must not lose weighted-sum value."""
        evaluated = channel_high.evaluate(bound())
        lex = support_point(evaluated, 1.0, 2.0)
        plain = support_point(evaluated, 1.0, 2.0, lexicographic=False)
        assert lex.ra + 2.0 * lex.rb == pytest.approx(
            plain.ra + 2.0 * plain.rb, abs=1e-7
        )


class TestMaxSumRate:
    def test_dt_sum_rate_is_direct_capacity(self, channel_high, paper_gains):
        evaluated = channel_high.evaluate(dt_capacity())
        point = max_sum_rate(evaluated)
        expected = gaussian_capacity(channel_high.power * paper_gains.gab)
        assert point.sum_rate == pytest.approx(expected)

    def test_lp_beats_duration_grid(self, channel_high):
        """The LP optimum must dominate a brute-force grid over durations."""
        evaluated = channel_high.evaluate(mabc_inner())
        lp_value = max_sum_rate(evaluated).sum_rate
        grid_best = 0.0
        for d1 in np.linspace(0.0, 1.0, 2001):
            grid_best = max(
                grid_best,
                sum_rate_fixed_durations(evaluated, (d1, 1.0 - d1)),
            )
        assert lp_value >= grid_best - 1e-9
        assert lp_value == pytest.approx(grid_best, abs=2e-3)

    def test_lp_beats_tdbc_grid(self, channel_high):
        evaluated = channel_high.evaluate(tdbc_inner())
        lp_value = max_sum_rate(evaluated).sum_rate
        grid_best = 0.0
        steps = np.linspace(0.0, 1.0, 41)
        for d1, d2 in itertools.product(steps, steps):
            if d1 + d2 > 1.0 + 1e-12:
                continue
            durations = (d1, d2, 1.0 - d1 - d2)
            grid_best = max(grid_best, sum_rate_fixed_durations(evaluated, durations))
        assert lp_value >= grid_best - 1e-9
        assert lp_value == pytest.approx(grid_best, abs=5e-2)

    def test_point_satisfies_own_constraints(self, channel_high):
        evaluated = channel_high.evaluate(hbc_inner())
        point = max_sum_rate(evaluated)
        caps = evaluated.rate_caps(tuple(point.durations))
        assert point.ra <= caps["Ra"] + 1e-8
        assert point.rb <= caps["Rb"] + 1e-8
        assert point.sum_rate <= caps["Ra+Rb"] + 1e-8


class TestEqualRatePoint:
    def test_rates_equal(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        point = equal_rate_point(evaluated)
        assert point.ra == pytest.approx(point.rb)
        assert point.ra > 0

    def test_equal_rate_feasible(self, channel_high):
        evaluated = channel_high.evaluate(tdbc_inner())
        point = equal_rate_point(evaluated)
        assert feasible_rate_pair(evaluated, point.ra, point.rb, tol=1e-7)

    def test_equal_rate_below_sum_optimal(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        eq = equal_rate_point(evaluated)
        best = max_sum_rate(evaluated)
        assert eq.sum_rate <= best.sum_rate + 1e-9

    def test_hbc_dominates_special_cases(self, channel_high):
        hbc, mabc, tdbc = (
            equal_rate_point(channel_high.evaluate(builder())).ra
            for builder in (hbc_inner, mabc_inner, tdbc_inner)
        )
        assert hbc >= mabc - 1e-8
        assert hbc >= tdbc - 1e-8

    def test_dt_symmetric_point_loses_nothing(self, channel_high):
        """DT's region is a simplex: the equal-rate point is sum-optimal."""
        evaluated = channel_high.evaluate(dt_capacity())
        eq = equal_rate_point(evaluated)
        assert eq.sum_rate == pytest.approx(max_sum_rate(evaluated).sum_rate, abs=1e-9)

    def test_asymmetric_channel_costs_fairness(self, channel_high):
        """On the Fig. 4 channel (G_ar != G_br) at least one relaying
        protocol pays a real sum-rate price for equal rates."""
        costs = []
        for builder in (mabc_inner, tdbc_inner, hbc_inner):
            evaluated = channel_high.evaluate(builder())
            costs.append(
                max_sum_rate(evaluated).sum_rate - equal_rate_point(evaluated).sum_rate
            )
        assert min(costs) >= -1e-9
        assert max(costs) > 1e-3


class TestFeasibility:
    def test_origin_always_feasible(self, channel_high):
        for builder in (dt_capacity, mabc_inner, tdbc_inner, hbc_inner):
            evaluated = channel_high.evaluate(builder())
            assert feasible_rate_pair(evaluated, 0.0, 0.0)

    def test_optimal_point_feasible(self, channel_high):
        evaluated = channel_high.evaluate(hbc_inner())
        point = max_sum_rate(evaluated)
        assert feasible_rate_pair(evaluated, point.ra * 0.999, point.rb * 0.999)

    def test_scaled_up_point_infeasible(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        point = max_sum_rate(evaluated)
        assert not feasible_rate_pair(evaluated, point.ra * 1.05, point.rb * 1.05)

    def test_negative_rates_infeasible(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        assert not feasible_rate_pair(evaluated, -0.5, 0.1)

    def test_solver_failure_is_not_a_membership_verdict(
        self, channel_high, monkeypatch
    ):
        """Only a proven-infeasible LP means "outside"; a failure propagates."""
        import scipy.optimize

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(status=4, success=False, message="numerics")

        monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
        evaluated = channel_high.evaluate(mabc_inner())
        with pytest.raises(ConvergenceError):
            feasible_rate_pair(evaluated, 0.1, 0.1)


class TestFixedDurationSumRate:
    def test_matches_caps_arithmetic(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        caps = evaluated.rate_caps((0.6, 0.4))
        expected = min(caps["Ra"] + caps["Rb"], caps["Ra+Rb"])
        assert sum_rate_fixed_durations(evaluated, (0.6, 0.4)) == pytest.approx(
            expected
        )

    def test_degenerate_all_time_to_one_phase(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        # All time in phase 1: relay can never forward -> zero rates.
        assert sum_rate_fixed_durations(evaluated, (1.0, 0.0)) == pytest.approx(0.0)
        # All time in phase 2: relay never hears anything -> zero rates.
        assert sum_rate_fixed_durations(evaluated, (0.0, 1.0)) == pytest.approx(0.0)
