"""Linear-programming facade over scipy's HiGHS solver.

Every scalar LP in this library (phase-duration optimization,
weighted-sum-rate boundary tracing) goes through :func:`solve_lp`, which
solves it with HiGHS and maps solver statuses onto the library's exception
hierarchy. HiGHS is the analytic side's independent oracle: the batched
campaign kernel (:mod:`repro.campaign.kernel`) is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    ConvergenceError,
    InfeasibleProblemError,
    InvalidParameterError,
    UnboundedProblemError,
)

__all__ = ["LinearProgram", "LpResult", "solve_lp"]


@dataclass(frozen=True)
class LinearProgram:
    """``minimize c @ x  s.t.  a_ub x <= b_ub, a_eq x == b_eq, x >= 0``.

    Variables are implicitly non-negative, which matches every use in this
    library (rates and phase durations are non-negative).
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c", c)
        n = c.shape[0]
        for name in ("a_ub", "a_eq"):
            matrix = getattr(self, name)
            vector = getattr(self, "b" + name[1:])
            if (matrix is None) != (vector is None):
                raise InvalidParameterError(
                    f"{name} and its rhs must be given together"
                )
            if matrix is not None:
                matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
                vector = np.atleast_1d(np.asarray(vector, dtype=float))
                if matrix.shape != (vector.shape[0], n):
                    raise InvalidParameterError(
                        f"{name} shape {matrix.shape} inconsistent with "
                        f"n={n} and rhs length {vector.shape[0]}"
                    )
                object.__setattr__(self, name, matrix)
                object.__setattr__(self, "b" + name[1:], vector)

    @property
    def n_variables(self) -> int:
        """Number of decision variables."""
        return self.c.shape[0]


@dataclass(frozen=True)
class LpResult:
    """Solution of a :class:`LinearProgram`.

    Attributes
    ----------
    x:
        Optimal point.
    objective:
        Optimal value of ``c @ x`` (the *minimization* objective).
    """

    x: np.ndarray
    objective: float


def solve_lp(problem: LinearProgram) -> LpResult:
    """Solve an LP with scipy's HiGHS solver.

    Raises
    ------
    InfeasibleProblemError / UnboundedProblemError
        HiGHS proved the problem infeasible / unbounded.
    ConvergenceError
        HiGHS stopped without a solution (iteration limit or numerical
        difficulties).
    """
    from scipy.optimize import linprog as scipy_linprog

    result = scipy_linprog(
        problem.c,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=[(0, None)] * problem.n_variables,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleProblemError(f"scipy reports infeasible LP: {result.message}")
    if result.status == 3:
        raise UnboundedProblemError(f"scipy reports unbounded LP: {result.message}")
    if not result.success:
        raise ConvergenceError(f"scipy LP failed: {result.message}")
    return LpResult(x=np.asarray(result.x), objective=float(result.fun))
