"""Error-rate and throughput accounting for simulation campaigns.

The counters accept one frame at a time (:meth:`LinkCounter.record`) or a
whole batch of rounds in one call (:meth:`LinkCounter.record_rows`); the
batched recorders reduce with exact integer sums, so a batch is
indistinguishable from the equivalent sequence of scalar records — the
property that lets the batched simulation kernel produce reports equal to
the per-round reference field for field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "LinkCounter",
    "WeightedFerCounter",
    "wilson_interval",
    "ThroughputReport",
]


def wilson_interval(
    successes: int, trials: int, *, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal approximation because simulated frame error
    counts are often near 0 or 1, where Wald intervals collapse.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise InvalidParameterError(
            f"invalid counts: {successes} successes of {trials} trials"
        )
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class LinkCounter:
    """Accumulates frame and bit error statistics for one direction."""

    frames: int = 0
    frame_errors: int = 0
    bits: int = 0
    bit_errors: int = 0

    def record(self, *, success: bool, n_bits: int, n_bit_errors: int) -> None:
        """Account one frame."""
        if n_bits < 0 or n_bit_errors < 0 or n_bit_errors > n_bits:
            raise InvalidParameterError(
                f"invalid bit counts: {n_bit_errors} errors of {n_bits} bits"
            )
        self.frames += 1
        self.frame_errors += 0 if success else 1
        self.bits += n_bits
        self.bit_errors += n_bit_errors

    def record_rows(self, *, success, n_bits: int, n_bit_errors) -> None:
        """Account a batch of frames: one success flag and error count each."""
        success = np.asarray(success, dtype=bool)
        errors = np.asarray(n_bit_errors)
        if success.shape != errors.shape or success.ndim != 1:
            raise InvalidParameterError(
                f"mismatched batch shapes: {success.shape} vs {errors.shape}"
            )
        if n_bits < 0 or (errors < 0).any() or (errors > n_bits).any():
            raise InvalidParameterError(
                f"invalid bit counts in batch of {n_bits}-bit frames"
            )
        self.frames += int(success.size)
        self.frame_errors += int((~success).sum())
        self.bits += int(success.size) * int(n_bits)
        self.bit_errors += int(errors.sum())

    @property
    def fer(self) -> float:
        """Frame error rate."""
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def ber(self) -> float:
        """Bit error rate."""
        return self.bit_errors / self.bits if self.bits else 0.0

    def fer_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson interval for the frame error rate."""
        return wilson_interval(self.frame_errors, self.frames, z=z)


@dataclass
class WeightedFerCounter:
    """Likelihood-ratio-weighted frame-error accounting of one cell.

    The importance-sampling companion of :class:`LinkCounter`: every
    protocol round contributes its two direction outcomes as Bernoulli
    trials, each weighted by that direction's exact likelihood ratio
    ``w`` (see :mod:`repro.simulation.sampling` — for the factorizing
    protocols the two directions carry different weights). Since
    ``E_q[w * err] = FER``, the unnormalized estimator
    :attr:`weighted_fer` is unbiased at any sample size; :attr:`ess`
    exposes the effective sample size that guards weight degeneracy.

    Attributes
    ----------
    n_rounds:
        Protocol rounds recorded (each pools two direction trials).
    sum_weights / sum_sq_weights:
        Per-trial weight sums ``sum w`` and ``sum w^2`` over the pooled
        direction trials.
    weighted_errors / weighted_sq_errors:
        ``sum w * err`` and ``sum w^2 * err`` over the pooled trials
        (``err`` is the trial's 0/1 frame-error indicator).
    max_weight:
        Largest trial weight seen — the degeneracy diagnostic.
    """

    n_rounds: int = 0
    sum_weights: float = 0.0
    sum_sq_weights: float = 0.0
    weighted_errors: float = 0.0
    weighted_sq_errors: float = 0.0
    max_weight: float = 0.0

    def record_rows(
        self, *, log_weights_a, log_weights_b, success_a, success_b
    ) -> None:
        """Account a batch of rounds: per-direction log weights and outcomes."""
        log_weights_a = np.asarray(log_weights_a, dtype=float)
        log_weights_b = np.asarray(log_weights_b, dtype=float)
        success_a = np.asarray(success_a, dtype=bool)
        success_b = np.asarray(success_b, dtype=bool)
        shapes = {
            log_weights_a.shape,
            log_weights_b.shape,
            success_a.shape,
            success_b.shape,
        }
        if len(shapes) != 1 or log_weights_a.ndim != 1:
            raise InvalidParameterError(
                f"mismatched batch shapes: {log_weights_a.shape}, "
                f"{log_weights_b.shape}, {success_a.shape}, {success_b.shape}"
            )
        # A degenerate proposal can push exp() to inf; masked sums keep
        # the accumulators NaN-free (inf * 0 never forms) so the ESS
        # guard sees the degeneracy instead of a poisoned estimate.
        with np.errstate(over="ignore"):
            weights_a = np.exp(log_weights_a)
            weights_b = np.exp(log_weights_b)
        err_a = ~success_a
        err_b = ~success_b
        self.n_rounds += int(log_weights_a.size)
        self.sum_weights += float(weights_a.sum() + weights_b.sum())
        self.sum_sq_weights += float(
            (weights_a * weights_a).sum() + (weights_b * weights_b).sum()
        )
        self.weighted_errors += float(weights_a[err_a].sum() + weights_b[err_b].sum())
        self.weighted_sq_errors += float(
            (weights_a[err_a] ** 2).sum() + (weights_b[err_b] ** 2).sum()
        )
        if weights_a.size:
            self.max_weight = max(
                self.max_weight, float(weights_a.max()), float(weights_b.max())
            )

    @property
    def frames(self) -> int:
        """Pooled Bernoulli trials: two directions per round."""
        return 2 * self.n_rounds

    @property
    def weighted_fer(self) -> float:
        """Unbiased weighted FER: ``sum(w * err) / trials``."""
        return self.weighted_errors / self.frames if self.frames else 0.0

    @property
    def mean_weight(self) -> float:
        """Average trial weight (concentrates near 1 for sane proposals)."""
        return self.sum_weights / self.frames if self.frames else 0.0

    @property
    def ess(self) -> float:
        """Effective sample size ``(sum w)^2 / sum w^2`` over the trials."""
        if self.sum_sq_weights <= 0 or not math.isfinite(self.sum_sq_weights):
            return 0.0
        return self.sum_weights * self.sum_weights / self.sum_sq_weights

    @property
    def ess_fraction(self) -> float:
        """ESS as a fraction of the pooled trial count."""
        return self.ess / self.frames if self.frames else 0.0

    @property
    def rel_std_error(self) -> float:
        """Relative standard error of :attr:`weighted_fer`.

        Sample-variance form over the ``2 * n_rounds`` weighted trials;
        ``inf`` while no weighted error mass has been observed.
        """
        if self.weighted_errors <= 0 or self.frames < 2:
            return math.inf
        n = self.frames
        variance = (self.weighted_sq_errors - self.weighted_errors**2 / n) / (n - 1)
        if variance <= 0:
            return 0.0
        return math.sqrt(variance / n) / self.weighted_fer


@dataclass
class ThroughputReport:
    """Delivered-information accounting across a campaign.

    Throughput is *goodput*: only payload bits of frames that were decoded
    correctly count, divided by the total channel symbols spent — directly
    comparable (in bits/symbol) to the analytic sum-rate bounds.
    """

    delivered_bits: int = 0
    total_symbols: int = 0
    per_direction: dict = field(default_factory=dict)

    def record(self, direction: str, *, delivered_bits: int) -> None:
        """Add delivered payload bits for one direction."""
        if delivered_bits < 0:
            raise InvalidParameterError(f"negative bits: {delivered_bits}")
        self.delivered_bits += delivered_bits
        self.per_direction[direction] = (
            self.per_direction.get(direction, 0) + delivered_bits
        )

    def record_rows(
        self, direction: str, *, delivered_bits_per_frame: int, successes
    ) -> None:
        """Add the delivered bits of a batch of rounds in one call.

        Only rounds whose frame was recovered deliver payload; a batch
        with no successes records nothing — exactly like the per-round
        conditional ``record`` calls it replaces, so reports built from
        batches compare equal to per-round reports.
        """
        count = int(np.asarray(successes, dtype=bool).sum())
        if count:
            self.record(direction, delivered_bits=count * int(delivered_bits_per_frame))

    def add_symbols(self, n_symbols: int) -> None:
        """Account channel uses."""
        if n_symbols < 0:
            raise InvalidParameterError(f"negative symbol count: {n_symbols}")
        self.total_symbols += n_symbols

    @property
    def sum_throughput(self) -> float:
        """Total goodput in bits per channel symbol."""
        return self.delivered_bits / self.total_symbols if self.total_symbols else 0.0

    def direction_throughput(self, direction: str) -> float:
        """Goodput of one direction in bits per channel symbol."""
        if not self.total_symbols:
            return 0.0
        return self.per_direction.get(direction, 0) / self.total_symbols
