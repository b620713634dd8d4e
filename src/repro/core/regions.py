"""Rate-region geometry.

Two views of a protocol's rate region appear in the paper:

* the region at *fixed* phase durations — a pentagon-shaped polygon
  (:func:`fixed_duration_polygon`), and
* the region *unioned over all duration choices* — a convex set whose
  boundary Fig. 4 plots (:class:`RateRegion`); convexity follows from time
  sharing, so a weighted-sum LP sweep traces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..information.mac import MacPentagon
from .gaussian import EvaluatedBound
from .optimize import RatePoint, feasible_rate_pair, max_sum_rate, support_point

__all__ = [
    "RateRegion",
    "fixed_duration_polygon",
    "frontier_polygon",
    "polygon_area",
    "region_dominates",
]


def fixed_duration_polygon(evaluated: EvaluatedBound, durations) -> list[tuple]:
    """Vertices of the rate region at fixed phase durations.

    The region is ``{Ra <= ca, Rb <= cb, Ra + Rb <= cs, Ra, Rb >= 0}``
    with the caps from :meth:`EvaluatedBound.rate_caps`; its vertices are
    those of a (possibly degenerate) pentagon, enumerated counter-clockwise
    starting from the origin.
    """
    caps = evaluated.rate_caps(tuple(durations))
    ca, cb = caps["Ra"], caps["Rb"]
    cs = min(caps["Ra+Rb"], ca + cb)
    pentagon = MacPentagon(rate1_max=ca, rate2_max=cb, sum_max=cs)
    return pentagon.vertices()


def polygon_area(vertices) -> float:
    """Shoelace area of a polygon given as an ordered vertex list."""
    pts = np.asarray(list(vertices), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def frontier_polygon(frontier) -> np.ndarray:
    """Close a traced Pareto frontier into a polygon including the axes.

    ``frontier`` is a :meth:`RateRegion.boundary` array (ordered by
    increasing ``Ra``); the polygon runs ``(0, 0) -> (0, Rb_max) ->``
    the frontier ``-> (Ra_max, 0)``, with consecutive repeats dropped.
    """
    ra_max = frontier[-1, 0]
    rb_max = frontier[0, 1]
    pts = [(0.0, 0.0), (0.0, rb_max)]
    pts.extend((float(ra), float(rb)) for ra, rb in frontier)
    pts.append((ra_max, 0.0))
    dedup = [pts[0]]
    for p in pts[1:]:
        if abs(p[0] - dedup[-1][0]) > 1e-12 or abs(p[1] - dedup[-1][1]) > 1e-12:
            dedup.append(p)
    return np.asarray(dedup, dtype=float)


@dataclass(frozen=True)
class RateRegion:
    """The convex rate region of a bound, unioned over phase durations.

    Every query is answered by linear programming over
    ``(Ra, Rb, Δ_1..Δ_L)``; no sampling or discretization of the duration
    simplex is involved, so results are exact up to LP tolerance.

    Attributes
    ----------
    evaluated:
        The numeric bound (channel already applied); every query solves
        its LP with HiGHS (:func:`repro.optimize.solve_lp`).
    """

    evaluated: EvaluatedBound

    @property
    def label(self) -> str:
        """Human-readable name inherited from the bound spec."""
        return self.evaluated.spec.label

    def support(self, mu_a: float, mu_b: float) -> RatePoint:
        """Boundary point maximizing ``μ_a·Ra + μ_b·Rb`` (lexicographic)."""
        return support_point(self.evaluated, mu_a, mu_b)

    def max_ra(self) -> RatePoint:
        """The corner with maximal ``Ra`` (ties broken toward large ``Rb``)."""
        return self.support(1.0, 0.0)

    def max_rb(self) -> RatePoint:
        """The corner with maximal ``Rb`` (ties broken toward large ``Ra``)."""
        return self.support(0.0, 1.0)

    def max_sum_rate(self) -> RatePoint:
        """The sum-rate-optimal operating point."""
        return max_sum_rate(self.evaluated)

    def contains(self, ra: float, rb: float, *, tol: float = 1e-9) -> bool:
        """Membership test via a feasibility LP in the durations."""
        return feasible_rate_pair(self.evaluated, ra, rb, tol=tol)

    def boundary(self, n_points: int = 33) -> np.ndarray:
        """Trace the Pareto frontier as an ``(n, 2)`` array of rate pairs.

        Supporting points are computed for ``n_points`` weight directions
        spread over the first quadrant (including both axes), deduplicated
        and ordered by increasing ``Ra``. The first point is
        ``(0, Rb_max)``'s Pareto corner and the last is ``Ra_max``'s; for
        plotting a closed region, append ``(Ra_max, 0)`` and ``(0, 0)``.
        """
        if n_points < 2:
            raise InvalidParameterError(f"need at least 2 directions, got {n_points}")
        angles = np.linspace(0.0, np.pi / 2.0, n_points)
        points = []
        for theta in angles:
            mu_a = float(np.cos(theta))
            mu_b = float(np.sin(theta))
            # Clamp tiny negatives from cos(pi/2).
            point = self.support(max(mu_a, 0.0), max(mu_b, 0.0))
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

    def closed_polygon(self, n_points: int = 33) -> np.ndarray:
        """The region as a closed polygon including the axes."""
        return frontier_polygon(self.boundary(n_points))

    def area(self, n_points: int = 65) -> float:
        """Area of the region (shoelace over the closed polygon)."""
        return polygon_area(self.closed_polygon(n_points))


def region_dominates(
    outer: RateRegion, inner: RateRegion, *, n_points: int = 17, tol: float = 1e-6
) -> bool:
    """Whether ``outer`` contains every boundary point of ``inner``.

    Used by the tests to verify inner ⊆ outer (Theorems 3 vs 4) and the
    protocol nesting MABC, TDBC ⊆ HBC. ``tol`` absorbs LP round-off by
    shrinking the tested points slightly toward the origin.
    """
    for ra, rb in inner.boundary(n_points):
        shrink = 1.0 - tol
        if not outer.contains(ra * shrink, rb * shrink, tol=tol):
            return False
    return True
