"""Property-based checks of HiGHS solutions through the LP facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError
from repro.optimize.linprog import LinearProgram, solve_lp

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_bounded_lp(seed: int) -> LinearProgram:
    """A random LP with a bounded, non-empty feasible set.

    Feasibility: x = 0 satisfies every `A x <= b` with b >= 0.
    Boundedness: every variable is capped by an identity row.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    a_ub = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    row_caps = rng.uniform(0.1, 2.0, size=m)
    b_ub = np.concatenate([row_caps, rng.uniform(0.5, 5.0, size=n)])
    c = rng.normal(size=n)
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub)


def random_duration_lp(seed: int) -> LinearProgram:
    """A random LP over the probability simplex (like duration problems)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    c = rng.normal(size=n)
    a_eq = np.ones((1, n))
    b_eq = np.array([1.0])
    a_ub = rng.normal(size=(2, n))
    b_ub = rng.uniform(0.5, 3.0, size=2)
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


class TestHighsSolutions:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_optimum_beats_sampled_feasible_points(self, seed):
        problem = random_bounded_lp(seed)
        result = solve_lp(problem)
        rng = np.random.default_rng(seed)
        caps = problem.b_ub[-problem.n_variables :]
        points = rng.uniform(0.0, 1.0, size=(200, problem.n_variables)) * caps
        feasible = np.all(points @ problem.a_ub.T <= problem.b_ub, axis=1)
        assert np.all(points[feasible] @ problem.c >= result.objective - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_duration_lps_are_solved_on_the_simplex(self, seed):
        problem = random_duration_lp(seed)
        try:
            result = solve_lp(problem)
        except InfeasibleProblemError:
            return
        assert np.all(result.x >= -1e-9)
        assert result.x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(problem.a_ub @ result.x <= problem.b_ub + 1e-7)
        assert result.objective == pytest.approx(float(problem.c @ result.x), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_solutions_are_feasible(self, seed):
        problem = random_bounded_lp(seed)
        result = solve_lp(problem)
        assert np.all(result.x >= -1e-9)
        assert np.all(problem.a_ub @ result.x <= problem.b_ub + 1e-7)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_objective_matches_point(self, seed):
        problem = random_bounded_lp(seed)
        result = solve_lp(problem)
        assert result.objective == pytest.approx(float(problem.c @ result.x), abs=1e-9)
