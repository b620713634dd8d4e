"""Optimization substrate: the HiGHS LP facade and scalar search."""

from .linprog import LinearProgram, LpResult, solve_lp
from .search import (
    ScalarSearchResult,
    find_crossover,
    golden_section_maximize,
    grid_maximize,
)

__all__ = [
    "LinearProgram",
    "LpResult",
    "solve_lp",
    "ScalarSearchResult",
    "find_crossover",
    "golden_section_maximize",
    "grid_maximize",
]
