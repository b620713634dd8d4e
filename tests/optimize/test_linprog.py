"""Unit tests for the LP facade (HiGHS through scipy)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import (
    ConvergenceError,
    InfeasibleProblemError,
    InvalidParameterError,
    UnboundedProblemError,
)
from repro.optimize.linprog import LinearProgram, solve_lp


class TestLinearProgram:
    def test_dimension_validation(self):
        with pytest.raises(InvalidParameterError):
            LinearProgram(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])

    def test_matrix_without_rhs_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=None)

    def test_n_variables(self):
        assert LinearProgram(c=[1.0, 2.0, 3.0]).n_variables == 3


class TestSolveLp:
    def test_simple_maximization(self):
        # max x1 + x2 s.t. x1 <= 2, x2 <= 3  -> (2, 3)
        problem = LinearProgram(
            c=[-1.0, -1.0], a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[2.0, 3.0]
        )
        result = solve_lp(problem)
        assert result.objective == pytest.approx(-5.0)
        np.testing.assert_allclose(result.x, [2.0, 3.0], atol=1e-9)

    def test_unconstrained_zero_optimum(self):
        result = solve_lp(LinearProgram(c=[1.0, 2.0]))
        np.testing.assert_allclose(result.x, [0.0, 0.0])

    def test_classic_lp(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36
        problem = LinearProgram(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        result = solve_lp(problem)
        assert result.objective == pytest.approx(-36.0)
        np.testing.assert_allclose(result.x, [2.0, 6.0], atol=1e-8)

    def test_equality_constraints(self):
        # min x1 + 2 x2 s.t. x1 + x2 == 1 -> (1, 0)
        result = solve_lp(LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert result.objective == pytest.approx(1.0)
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-9)

    def test_mixed_constraints(self):
        # max x1 s.t. x1 + x2 == 1, x1 <= 0.25
        problem = LinearProgram(
            c=[-1.0, 0.0],
            a_ub=[[1.0, 0.0]],
            b_ub=[0.25],
            a_eq=[[1.0, 1.0]],
            b_eq=[1.0],
        )
        result = solve_lp(problem)
        assert result.x[0] == pytest.approx(0.25)
        assert result.x[1] == pytest.approx(0.75)

    def test_negative_rhs(self):
        # x1 - x2 <= -1 with min x1 -> x must satisfy x2 >= x1 + 1.
        problem = LinearProgram(c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[-1.0])
        result = solve_lp(problem)
        assert result.objective == pytest.approx(0.0)
        assert result.x[1] >= 1.0 - 1e-9

    def test_degenerate_redundant_constraints(self):
        problem = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
            b_ub=[1.0, 1.0, 1.0],
        )
        assert solve_lp(problem).objective == pytest.approx(-1.0)

    def test_zero_rhs_equality(self):
        problem = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
        assert solve_lp(problem).objective == pytest.approx(0.0)

    def test_contradictory_inequalities_infeasible(self):
        # x <= 1 and -x <= -2 (i.e. x >= 2)
        problem = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        with pytest.raises(InfeasibleProblemError):
            solve_lp(problem)

    def test_equality_contradicts_inequality_infeasible(self):
        problem = LinearProgram(
            c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[2.0]
        )
        with pytest.raises(InfeasibleProblemError):
            solve_lp(problem)

    def test_variables_are_non_negative(self):
        # x1 + x2 == -1 is solvable only with a negative variable.
        problem = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[-1.0])
        with pytest.raises(InfeasibleProblemError):
            solve_lp(problem)

    def test_unbounded_detected(self):
        problem = LinearProgram(c=[-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        with pytest.raises(UnboundedProblemError):
            solve_lp(problem)

    def test_unbounded_without_constraints(self):
        with pytest.raises(UnboundedProblemError):
            solve_lp(LinearProgram(c=[-1.0, 0.0]))

    @pytest.mark.parametrize(
        "status, message", [(1, "iteration limit"), (4, "numerical difficulties")]
    )
    def test_solver_failure_is_a_convergence_error(self, monkeypatch, status, message):
        """HiGHS giving up is not a parameter error."""
        import scipy.optimize

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(status=status, success=False, message=message)

        monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
        with pytest.raises(ConvergenceError, match=message):
            solve_lp(LinearProgram(c=[1.0]))
