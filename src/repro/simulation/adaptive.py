"""Adaptive protocol selection under quasi-static fading.

With full CSI (the paper's assumption) the nodes know the realized gains
before each protocol execution, so nothing stops them from *choosing the
protocol per realization* — the natural system-level use of the paper's
comparison. This module quantifies that adaptivity gain:

:func:`adaptive_sum_rate` reports the ergodic rate of the
pick-the-best-protocol-each-fade strategy, each fixed protocol's ergodic
rate, and how often each protocol wins
(:meth:`AdaptiveReport.selection_frequency`) — the operating-regime mix
a deployment would actually see. Every candidate is evaluated on the
same drawn ensemble through :func:`repro.campaign.engine.evaluate_ensemble`,
one batched kernel call per candidate.

Since MABC and TDBC are special cases of HBC, the adaptive gain over
*HBC alone* is zero by definition; the interesting quantity is the gain
over the best *fixed two-phase or three-phase* protocol, which is what a
complexity-constrained deployment (no four-phase scheduling) would run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..campaign.engine import evaluate_ensemble
from ..channels.fading import sample_gain_ensemble
from ..channels.gains import LinkGains
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError

__all__ = ["AdaptiveReport", "adaptive_sum_rate"]


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
    rates = np.array(
        [evaluate_ensemble(protocol, ensemble, power) for protocol in candidates]
    )
    # argmax returns the first maximum: ties go to the earlier candidate.
    winners = np.argmax(rates, axis=0)
    winner_counts = dict.fromkeys(candidates, 0)
    for protocol, count in zip(candidates, np.bincount(winners, minlength=len(rates))):
        winner_counts[protocol] += int(count)
    return AdaptiveReport(
        fixed_means={p: float(r.mean()) for p, r in zip(candidates, rates)},
        adaptive_mean=float(rates.max(axis=0).mean()),
        winner_counts=winner_counts,
        n_draws=n_draws,
    )
