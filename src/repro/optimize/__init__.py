"""Optimization substrate: the HiGHS LP facade."""

from .linprog import LinearProgram, LpResult, solve_lp

__all__ = [
    "LinearProgram",
    "LpResult",
    "solve_lp",
]
