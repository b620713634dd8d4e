"""LP optimization directly over Lemma-1 engine constraints.

The cut-set engine (:func:`repro.network.cutset.cutset_outer_bound`)
produces :class:`~repro.network.cutset.CutConstraint` objects for *any*
protocol schedule and MI oracle — Gaussian, binary, or user-supplied. This
module closes the loop: it assembles those constraints into the same
``(Ra, Rb, Δ)`` linear programs used for the theorem bounds, so outer
bounds generated mechanically can be optimized and traced exactly like the
hand-coded ones.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from ..network.cutset import CutConstraint
from ..optimize.linprog import LinearProgram, solve_lp
from .optimize import RatePoint
from .protocols import PhaseDurations

__all__ = ["cutset_support_point", "cutset_max_sum_rate", "cutset_boundary"]

_RATE_INDEX = {"Ra": 0, "Rb": 1}


def _assemble(constraints, n_phases: int):
    n_vars = 2 + n_phases
    rows = []
    for constraint in constraints:
        if len(constraint.phase_mi) != n_phases:
            raise InvalidParameterError(
                f"constraint for cut {sorted(constraint.cut)} has "
                f"{len(constraint.phase_mi)} phases, expected {n_phases}"
            )
        row = np.zeros(n_vars)
        for name in constraint.message_names:
            if name not in _RATE_INDEX:
                raise InvalidParameterError(
                    f"unsupported rate name {name!r}; the LP assembly handles "
                    "the two-terminal rates 'Ra' and 'Rb'"
                )
            row[_RATE_INDEX[name]] = 1.0
        for phase, mi in enumerate(constraint.phase_mi):
            row[2 + phase] = -float(mi)
        rows.append(row)
    a_ub = np.vstack(rows)
    b_ub = np.zeros(len(rows))
    a_eq = np.zeros((1, n_vars))
    a_eq[0, 2:] = 1.0
    b_eq = np.array([1.0])
    return a_ub, b_ub, a_eq, b_eq


def cutset_support_point(
    constraints: list[CutConstraint],
    n_phases: int,
    mu_a: float,
    mu_b: float,
) -> RatePoint:
    """Maximize ``μ_a·Ra + μ_b·Rb`` over engine constraints and durations."""
    if not constraints:
        raise InvalidParameterError("at least one cut constraint required")
    if mu_a < 0 or mu_b < 0 or (mu_a == 0 and mu_b == 0):
        raise InvalidParameterError(
            f"weights must be non-negative and not both zero, got ({mu_a}, {mu_b})"
        )
    a_ub, b_ub, a_eq, b_eq = _assemble(constraints, n_phases)
    c = np.zeros(2 + n_phases)
    c[0], c[1] = -mu_a, -mu_b
    result = solve_lp(LinearProgram(c, a_ub, b_ub, a_eq, b_eq))
    durations = np.clip(result.x[2:], 0.0, None)
    total = durations.sum()
    durations = durations / total if total > 0 else np.full(n_phases, 1.0 / n_phases)
    return RatePoint(
        ra=float(max(result.x[0], 0.0)),
        rb=float(max(result.x[1], 0.0)),
        durations=PhaseDurations(durations),
    )


def cutset_max_sum_rate(constraints: list[CutConstraint], n_phases: int) -> RatePoint:
    """The sum-rate-optimal point of a mechanically generated outer bound."""
    return cutset_support_point(constraints, n_phases, 1.0, 1.0)


def cutset_boundary(
    constraints: list[CutConstraint],
    n_phases: int,
    *,
    n_points: int = 17,
) -> np.ndarray:
    """Trace the outer-bound boundary from engine constraints."""
    if n_points < 2:
        raise InvalidParameterError(f"need at least 2 directions, got {n_points}")
    angles = np.linspace(0.0, np.pi / 2.0, n_points)
    points = []
    for theta in angles:
        point = cutset_support_point(
            constraints,
            n_phases,
            max(float(np.cos(theta)), 0.0),
            max(float(np.sin(theta)), 0.0),
        )
        points.append((point.ra, point.rb))
    ordered = sorted(points, key=lambda p: (p[0], -p[1]))
    deduped: list[tuple] = []
    for ra, rb in ordered:
        if (
            deduped
            and abs(ra - deduped[-1][0]) < 1e-7
            and abs(rb - deduped[-1][1]) < 1e-7
        ):
            continue
        deduped.append((float(ra), float(rb)))
    return np.asarray(deduped, dtype=float)
