"""Phase-duration optimization via linear programming.

For a fixed channel, every theorem bound is a family of constraints that
are *jointly linear* in ``(Ra, Rb, Δ_1, ..., Δ_L)``: each ``min(...)``
simply contributes one linear constraint per argument. Maximizing any
non-negative weighted sum ``μ_a·Ra + μ_b·Rb`` over the *union over phase
durations* of the per-Δ regions is therefore a single LP — this is exactly
the "linear programming may then be used to find optimal time durations"
step of Section IV, solved by HiGHS through :func:`repro.optimize.solve_lp`.

Variables are ordered ``x = [Ra, Rb, Δ_1, ..., Δ_L]`` with ``x >= 0`` and
``sum(Δ) = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InfeasibleProblemError, InvalidParameterError
from ..optimize.linprog import LinearProgram, solve_lp
from .gaussian import EvaluatedBound
from .protocols import PhaseDurations

__all__ = [
    "RatePoint",
    "support_point",
    "max_sum_rate",
    "equal_rate_point",
    "sum_rate_fixed_durations",
    "feasible_rate_pair",
]

_RATE_INDEX = {"Ra": 0, "Rb": 1}


@dataclass(frozen=True)
class RatePoint:
    """An operating point: a rate pair and the durations that support it."""

    ra: float
    rb: float
    durations: PhaseDurations

    @property
    def sum_rate(self) -> float:
        """``Ra + Rb`` at this point."""
        return self.ra + self.rb


def _constraint_rows(evaluated: EvaluatedBound) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows ``A x <= 0`` encoding every bound constraint."""
    n_phases = evaluated.n_phases
    n_vars = 2 + n_phases
    rows = []
    for constraint in evaluated.constraints:
        row = np.zeros(n_vars)
        for rate in constraint.rates:
            row[_RATE_INDEX[rate]] = 1.0
        for phase, coeff in enumerate(constraint.coefficients):
            row[2 + phase] = -coeff
        rows.append(row)
    a_ub = np.vstack(rows)
    b_ub = np.zeros(len(rows))
    return a_ub, b_ub


def _duration_simplex(n_phases: int) -> tuple[np.ndarray, np.ndarray]:
    """Equality row ``sum(Δ) = 1``."""
    a_eq = np.zeros((1, 2 + n_phases))
    a_eq[0, 2:] = 1.0
    b_eq = np.array([1.0])
    return a_eq, b_eq


def support_point(
    evaluated: EvaluatedBound,
    mu_a: float,
    mu_b: float,
    *,
    lexicographic: bool = True,
) -> RatePoint:
    """Maximize ``μ_a·Ra + μ_b·Rb`` over rates *and* phase durations.

    With ``lexicographic=True`` (default), ties are broken by a second LP
    maximizing the transposed weight ``μ_b·Ra + μ_a·Rb`` subject to
    optimality of the first stage. This pins down the extreme point of the
    boundary when one weight is zero (e.g. ``μ = (1, 0)`` yields the corner
    with maximal ``Ra`` *and then* maximal ``Rb``), which is what the
    boundary tracer needs.

    Parameters
    ----------
    evaluated:
        Numeric bound for a fixed channel.
    mu_a, mu_b:
        Non-negative weights, not both zero.
    """
    if mu_a < 0 or mu_b < 0 or (mu_a == 0 and mu_b == 0):
        raise InvalidParameterError(
            f"weights must be non-negative and not both zero, got ({mu_a}, {mu_b})"
        )
    n_phases = evaluated.n_phases
    a_ub, b_ub = _constraint_rows(evaluated)
    a_eq, b_eq = _duration_simplex(n_phases)

    c = np.zeros(2 + n_phases)
    c[0], c[1] = -mu_a, -mu_b
    first = solve_lp(LinearProgram(c, a_ub, b_ub, a_eq, b_eq))
    value = -first.objective

    x = first.x
    if lexicographic:
        # Stage 2: among first-stage optima, maximize the transposed weight.
        # The slack is relative to the optimum so solver tolerance on large
        # objective values cannot make the stage-2 problem infeasible.
        slack = 1e-9 * max(1.0, abs(value))
        extra_row = np.zeros(2 + n_phases)
        extra_row[0], extra_row[1] = -mu_a, -mu_b
        a_ub2 = np.vstack([a_ub, extra_row])
        b_ub2 = np.concatenate([b_ub, [-value + slack]])
        c2 = np.zeros(2 + n_phases)
        c2[0], c2[1] = -mu_b, -mu_a
        second = solve_lp(LinearProgram(c2, a_ub2, b_ub2, a_eq, b_eq))
        x = second.x

    durations = np.clip(x[2:], 0.0, None)
    total = durations.sum()
    durations = durations / total if total > 0 else np.full(n_phases, 1.0 / n_phases)
    return RatePoint(
        ra=float(max(x[0], 0.0)),
        rb=float(max(x[1], 0.0)),
        durations=PhaseDurations(durations),
    )


def max_sum_rate(evaluated: EvaluatedBound) -> RatePoint:
    """The sum-rate-optimal operating point (``μ_a = μ_b = 1``)."""
    return support_point(evaluated, 1.0, 1.0, lexicographic=False)


def equal_rate_point(evaluated: EvaluatedBound) -> RatePoint:
    """Maximize the symmetric rate ``t`` with ``Ra = Rb = t``.

    Variables are ``[t, Δ_1..Δ_L]``; each constraint ``sum(rates) <= f(Δ)``
    becomes ``len(rates)·t <= f(Δ)``.
    """
    n_phases = evaluated.n_phases
    n_vars = 1 + n_phases
    rows = []
    for constraint in evaluated.constraints:
        row = np.zeros(n_vars)
        row[0] = float(len(constraint.rates))
        for phase, coeff in enumerate(constraint.coefficients):
            row[1 + phase] = -coeff
        rows.append(row)
    a_ub = np.vstack(rows)
    b_ub = np.zeros(len(rows))
    a_eq = np.zeros((1, n_vars))
    a_eq[0, 1:] = 1.0
    b_eq = np.array([1.0])
    c = np.zeros(n_vars)
    c[0] = -1.0
    result = solve_lp(LinearProgram(c, a_ub, b_ub, a_eq, b_eq))
    t = float(max(result.x[0], 0.0))
    durations = np.clip(result.x[1:], 0.0, None)
    total = durations.sum()
    durations = durations / total if total > 0 else np.full(n_phases, 1.0 / n_phases)
    return RatePoint(ra=t, rb=t, durations=PhaseDurations(durations))


def sum_rate_fixed_durations(evaluated: EvaluatedBound, durations) -> float:
    """Closed-form max ``Ra + Rb`` at *fixed* durations.

    With caps ``Ra <= ca``, ``Rb <= cb``, ``Ra + Rb <= cs`` the maximum of
    the sum is ``min(ca + cb, cs)``. Used as an LP-free cross-check of
    :func:`max_sum_rate` (grid search over the duration simplex must never
    beat the LP).
    """
    caps = evaluated.rate_caps(tuple(durations))
    return float(min(caps["Ra"] + caps["Rb"], caps["Ra+Rb"]))


def feasible_rate_pair(
    evaluated: EvaluatedBound,
    ra: float,
    rb: float,
    *,
    tol: float = 1e-9,
) -> bool:
    """Whether ``(ra, rb)`` lies in the union-over-durations region.

    Solves the feasibility LP in ``Δ`` alone: find durations satisfying
    every constraint at the fixed rate pair. ``tol`` relaxes each
    right-hand side so boundary points are classified as members.
    """
    if ra < -tol or rb < -tol:
        return False
    ra, rb = max(ra, 0.0), max(rb, 0.0)
    n_phases = evaluated.n_phases
    fixed = {"Ra": ra, "Rb": rb}
    rows = []
    rhs = []
    for constraint in evaluated.constraints:
        value = sum(fixed[r] for r in constraint.rates)
        rows.append([-c for c in constraint.coefficients])
        rhs.append(tol - value)
    a_ub = np.asarray(rows)
    b_ub = np.asarray(rhs)
    a_eq = np.ones((1, n_phases))
    b_eq = np.array([1.0])
    c = np.zeros(n_phases)
    try:
        solve_lp(LinearProgram(c, a_ub, b_ub, a_eq, b_eq))
    except InfeasibleProblemError:
        return False
    return True
