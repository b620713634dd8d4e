"""Correlated-Gaussian evaluation of the HBC outer bound (Theorem 6).

Theorem 6 permits a *correlated* joint input ``p^(3)(x_a, x_b | q)`` in the
HBC MAC phase. The paper declines to evaluate its bound numerically
because the optimal joint law is unknown for the Gaussian channel. This
module implements the natural candidate evaluation the paper's discussion
points at — **jointly Gaussian phase-3 inputs with correlation
coefficient ρ** — as an explicit, clearly-labelled extension:

* ``I(X_a; Y_r | X_b)`` with correlation ρ becomes
  ``C((1 - ρ²) · P · G_ar)`` — conditioning removes the predictable part
  of ``X_a``, shrinking the individual terms;
* ``I(X_a, X_b; Y_r)`` becomes
  ``C(P·G_ar + P·G_br + 2ρ·P·sqrt(G_ar·G_br))`` — coherent combining
  grows the sum term (phases aligned, which is optimal under full CSI).

The Theorem-6 evaluation is then the union over ρ ∈ [0, 1] of the
per-ρ regions. Within the jointly-Gaussian family this is exact; whether
jointly Gaussian inputs are optimal for Theorem 6 is the open question the
paper flags, so results are labelled "Gaussian-input evaluation", not
"outer bound".
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from ..information.functions import gaussian_capacity
from .bounds import hbc_outer
from .gaussian import EvaluatedBound, EvaluatedConstraint, GaussianChannel
from .optimize import RatePoint, max_sum_rate, support_point
from .terms import MiKey

__all__ = [
    "evaluate_hbc_outer_correlated",
    "hbc_outer_correlated_sum_rate",
    "hbc_outer_correlated_boundary",
]

#: Index of the HBC MAC phase (0-based) whose inputs may be correlated.
_MAC_PHASE = 2


def _correlated_values(channel: GaussianChannel, rho: float) -> dict:
    """Phase-3 MI values under jointly Gaussian inputs with correlation ρ."""
    p = channel.power
    g = channel.gains
    residual = 1.0 - rho * rho
    return {
        MiKey.LINK_AR: gaussian_capacity(residual * p * g.gar),
        MiKey.LINK_BR: gaussian_capacity(residual * p * g.gbr),
        MiKey.MAC_SUM: gaussian_capacity(
            p * g.gar + p * g.gbr + 2.0 * rho * p * np.sqrt(g.gar * g.gbr)
        ),
        # The remaining keys cannot appear in phase 3 of Theorem 6, but a
        # complete table keeps the assembly uniform.
        MiKey.LINK_AB: channel.mi_value(MiKey.LINK_AB),
        MiKey.CUT_A_RB: channel.mi_value(MiKey.CUT_A_RB),
        MiKey.CUT_B_RA: channel.mi_value(MiKey.CUT_B_RA),
    }


def evaluate_hbc_outer_correlated(
    channel: GaussianChannel, rho: float
) -> EvaluatedBound:
    """Evaluate Theorem 6 with phase-3 correlation coefficient ``rho``.

    ``rho = 0`` reproduces :meth:`GaussianChannel.evaluate` on
    :func:`~repro.core.bounds.hbc_outer` exactly (independent inputs).
    """
    if not 0.0 <= rho <= 1.0:
        raise InvalidParameterError(f"correlation must lie in [0, 1], got {rho}")
    spec = hbc_outer()
    standard = channel.mi_values()
    correlated = _correlated_values(channel, rho)
    constraints = []
    for constraint in spec.constraints:
        coefficients = [0.0] * spec.n_phases
        for phase, key in constraint.form.terms:
            table = correlated if phase == _MAC_PHASE else standard
            coefficients[phase] += table[key]
        constraints.append(
            EvaluatedConstraint(
                rates=constraint.rates, coefficients=tuple(coefficients)
            )
        )
    return EvaluatedBound(spec=spec, constraints=tuple(constraints))


def hbc_outer_correlated_sum_rate(
    channel: GaussianChannel, *, rhos=None
) -> tuple[RatePoint, float]:
    """Max sum rate of the Theorem-6 Gaussian evaluation over ρ.

    Returns the best operating point and the ρ achieving it. The union
    over ρ is not convex in general, so ρ is swept on a grid (durations
    are still optimized exactly by LP at each ρ).
    """
    if rhos is None:
        rhos = np.linspace(0.0, 0.99, 34)
    best_point: RatePoint | None = None
    best_rho = 0.0
    for rho in rhos:
        point = max_sum_rate(evaluate_hbc_outer_correlated(channel, float(rho)))
        if best_point is None or point.sum_rate > best_point.sum_rate:
            best_point, best_rho = point, float(rho)
    assert best_point is not None
    return best_point, best_rho


def hbc_outer_correlated_boundary(
    channel: GaussianChannel,
    *,
    n_points: int = 17,
    rhos=None,
) -> np.ndarray:
    """Pareto boundary of the union over ρ of the Theorem-6 evaluation.

    For each weight direction the best ρ on the grid is kept; the result
    is the upper envelope of the per-ρ regions.
    """
    if n_points < 2:
        raise InvalidParameterError(f"need at least 2 directions, got {n_points}")
    if rhos is None:
        rhos = np.linspace(0.0, 0.99, 12)
    evaluated = [evaluate_hbc_outer_correlated(channel, float(r)) for r in rhos]
    angles = np.linspace(0.0, np.pi / 2.0, n_points)
    points = []
    for theta in angles:
        mu_a = max(float(np.cos(theta)), 0.0)
        mu_b = max(float(np.sin(theta)), 0.0)
        best = None
        for bound in evaluated:
            point = support_point(bound, mu_a, mu_b)
            value = mu_a * point.ra + mu_b * point.rb
            if best is None or value > best[0]:
                best = (value, point)
        assert best is not None
        points.append((best[1].ra, best[1].rb))
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
