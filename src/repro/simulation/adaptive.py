"""Adaptive protocol selection under quasi-static fading.

With full CSI (the paper's assumption) the nodes know the realized gains
before each protocol execution, so nothing stops them from *choosing the
protocol per realization* — the natural system-level use of the paper's
comparison. This module quantifies that adaptivity gain:

* :func:`adaptive_sum_rate` — the ergodic rate of the
  pick-the-best-protocol-each-fade strategy, alongside each fixed
  protocol's ergodic rate;
* :func:`selection_frequencies` — how often each protocol wins, i.e. the
  operating-regime mix a deployment would actually see.

Since MABC and TDBC are special cases of HBC, the adaptive gain over
*HBC alone* is zero by definition; the interesting quantity is the gain
over the best *fixed two-phase or three-phase* protocol, which is what a
complexity-constrained deployment (no four-phase scheduling) would run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels.fading import sample_gain_ensemble
from ..channels.gains import LinkGains
from ..core.capacity import optimal_sum_rate
from ..core.gaussian import GaussianChannel
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError

__all__ = ["AdaptiveReport", "adaptive_sum_rate", "selection_frequencies"]


@dataclass(frozen=True)
class AdaptiveReport:
    """Ergodic rates of fixed strategies vs per-fade protocol selection.

    Attributes
    ----------
    fixed_means:
        Protocol -> ergodic sum rate when running that protocol always.
    adaptive_mean:
        Ergodic sum rate when selecting the best protocol per realization.
    winner_counts:
        Protocol -> number of realizations it won (ties go to the earlier
        protocol in the candidate order).
    n_draws:
        Ensemble size.
    """

    fixed_means: dict
    adaptive_mean: float
    winner_counts: dict
    n_draws: int

    @property
    def adaptivity_gain(self) -> float:
        """Adaptive ergodic rate minus the best fixed protocol's."""
        return self.adaptive_mean - max(self.fixed_means.values())

    def selection_frequency(self, protocol: Protocol) -> float:
        """Fraction of realizations where ``protocol`` was selected."""
        return self.winner_counts.get(protocol, 0) / self.n_draws


def adaptive_sum_rate(
    mean_gains: LinkGains,
    power: float,
    n_draws: int,
    rng: np.random.Generator,
    *,
    candidates=(Protocol.MABC, Protocol.TDBC),
    k_factor: float = 0.0,
) -> AdaptiveReport:
    """Evaluate per-fade protocol selection over a Rayleigh/Rician ensemble.

    Parameters
    ----------
    mean_gains:
        Path-loss means of the three links.
    power:
        Per-node transmit power (linear).
    n_draws:
        Ensemble size.
    rng:
        Random generator (callers own the seed).
    candidates:
        The protocols the system may switch between; defaults to the two
        practical (≤3-phase) schemes, making the adaptivity gain the value
        of regime-aware switching the paper's low/high-SNR discussion
        implies.
    k_factor:
        Rician K-factor of the fading.
    """
    if n_draws < 1:
        raise InvalidParameterError(f"need at least one draw, got {n_draws}")
    candidates = tuple(candidates)
    if not candidates:
        raise InvalidParameterError("at least one candidate protocol required")
    ensemble = sample_gain_ensemble(mean_gains, n_draws, rng, k_factor=k_factor)
    totals = {protocol: 0.0 for protocol in candidates}
    winner_counts = {protocol: 0 for protocol in candidates}
    adaptive_total = 0.0
    for draw in ensemble:
        channel = GaussianChannel(gains=draw, power=power)
        rates = {
            protocol: optimal_sum_rate(protocol, channel).sum_rate
            for protocol in candidates
        }
        for protocol, value in rates.items():
            totals[protocol] += value
        best = max(candidates, key=lambda p: rates[p])
        winner_counts[best] += 1
        adaptive_total += rates[best]
    return AdaptiveReport(
        fixed_means={p: totals[p] / n_draws for p in candidates},
        adaptive_mean=adaptive_total / n_draws,
        winner_counts=winner_counts,
        n_draws=n_draws,
    )


def selection_frequencies(
    mean_gains: LinkGains,
    power: float,
    n_draws: int,
    rng: np.random.Generator,
    *,
    candidates=(Protocol.MABC, Protocol.TDBC),
    k_factor: float = 0.0,
) -> dict:
    """Protocol -> win frequency over the fading ensemble."""
    report = adaptive_sum_rate(
        mean_gains, power, n_draws, rng, candidates=candidates, k_factor=k_factor
    )
    return {p: report.selection_frequency(p) for p in report.winner_counts}
