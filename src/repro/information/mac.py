"""Two-user multiple-access channel (MAC) rate regions.

Phase 1 of the MABC protocol and phase 3 of the HBC protocol are two-user
MAC phases into the relay: both bounds feature the individual constraints
``I(X_a; Y_r | X_b)``, ``I(X_b; Y_r | X_a)`` and the sum constraint
``I(X_a, X_b; Y_r)``. This module provides the corresponding pentagon
regions, both for the Gaussian case (closed form) and for discrete channels
(from a joint distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .discrete import conditional_mutual_information, mutual_information
from .functions import gaussian_capacity

__all__ = ["MacPentagon", "gaussian_mac_pentagon", "discrete_mac_pentagon"]


@dataclass(frozen=True)
class MacPentagon:
    """The pentagon region ``{R1 <= c1, R2 <= c2, R1+R2 <= c12}``.

    Attributes
    ----------
    rate1_max:
        Individual bound on user 1's rate (``I(X1; Y | X2)``).
    rate2_max:
        Individual bound on user 2's rate (``I(X2; Y | X1)``).
    sum_max:
        Sum-rate bound (``I(X1, X2; Y)``).
    """

    rate1_max: float
    rate2_max: float
    sum_max: float

    def __post_init__(self) -> None:
        for name, value in (
            ("rate1_max", self.rate1_max),
            ("rate2_max", self.rate2_max),
            ("sum_max", self.sum_max),
        ):
            if value < 0:
                raise InvalidParameterError(f"{name} must be non-negative, got {value}")
        if self.sum_max > self.rate1_max + self.rate2_max + 1e-9:
            raise InvalidParameterError(
                "sum bound cannot exceed the sum of individual bounds: "
                f"{self.sum_max} > {self.rate1_max} + {self.rate2_max}"
            )

    def contains(self, rate1: float, rate2: float, *, atol: float = 1e-9) -> bool:
        """Whether the rate pair lies in the (closed) pentagon."""
        return (
            rate1 >= -atol
            and rate2 >= -atol
            and rate1 <= self.rate1_max + atol
            and rate2 <= self.rate2_max + atol
            and rate1 + rate2 <= self.sum_max + atol
        )

    def vertices(self) -> list[tuple[float, float]]:
        """Corner points of the pentagon, counter-clockwise from the origin.

        Degenerate cases (where the sum constraint is inactive or an
        individual constraint is inactive) collapse duplicate vertices.
        """
        c1, c2, c12 = self.rate1_max, self.rate2_max, self.sum_max
        pts: list[tuple[float, float]] = [(0.0, 0.0)]
        pts.append((min(c1, c12), 0.0))
        if c1 + c2 > c12:  # sum constraint active: two distinct corner points
            if c1 < c12:
                pts.append((c1, c12 - c1))
            if c2 < c12:
                pts.append((c12 - c2, c2))
        else:
            pts.append((c1, c2))
        pts.append((0.0, min(c2, c12)))
        # Deduplicate while preserving order.
        seen: set[tuple[float, float]] = set()
        unique = []
        for p in pts:
            key = (round(p[0], 12), round(p[1], 12))
            if key not in seen:
                seen.add(key)
                unique.append(p)
        return unique

    def max_sum_rate(self) -> float:
        """Largest achievable ``R1 + R2`` in the pentagon."""
        return min(self.sum_max, self.rate1_max + self.rate2_max)


def gaussian_mac_pentagon(snr1: float, snr2: float) -> MacPentagon:
    """Gaussian MAC pentagon for two users with receive SNRs ``snr1, snr2``.

    This is the region used by the paper for MABC phase 1 with
    ``snr1 = P*G_ar`` and ``snr2 = P*G_br``.
    """
    if snr1 < 0 or snr2 < 0:
        raise InvalidParameterError(f"SNRs must be non-negative, got {snr1}, {snr2}")
    return MacPentagon(
        rate1_max=gaussian_capacity(snr1),
        rate2_max=gaussian_capacity(snr2),
        sum_max=gaussian_capacity(snr1 + snr2),
    )


def discrete_mac_pentagon(p_joint: np.ndarray) -> MacPentagon:
    """MAC pentagon evaluated at a joint distribution ``p(x1, x2, y)``.

    The inputs must be independent for the region to be achievable without
    time sharing; this function evaluates the information quantities at
    whatever joint distribution it is given (axis 0 = X1, axis 1 = X2,
    axis 2 = Y).
    """
    arr = np.asarray(p_joint, dtype=float)
    if arr.ndim != 3:
        raise InvalidParameterError(
            f"joint distribution must have 3 axes (x1, x2, y), got {arr.ndim}"
        )
    r1 = conditional_mutual_information(arr, [0], [2], [1])
    r2 = conditional_mutual_information(arr, [1], [2], [0])
    rsum = mutual_information(arr, [0, 1], [2])
    # Numerical safety: MI computations can produce sum_max infinitesimally
    # above r1 + r2; clamp to keep the pentagon well-formed.
    rsum = min(rsum, r1 + r2)
    return MacPentagon(rate1_max=r1, rate2_max=r2, sum_max=rsum)
