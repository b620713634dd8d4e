"""ε-outage capacity of the protocols under quasi-static fading.

Section IV's channel model is quasi-static: each protocol execution sees
one fading draw, so the natural service guarantee is the *ε-outage sum
rate* — the largest target rate sustained in a fraction ``1 - ε`` of
fades. This module computes it per protocol from the same per-realization
LP optima used everywhere else:

* :func:`outage_sum_rate` — the ε-quantile of the optimal-sum-rate
  distribution (exactly the ε-outage capacity of the *adaptive-duration*
  scheme, since durations are re-optimized per fade);
* :func:`OutageCurve` — the full rate-vs-outage trade-off for plotting.

Ensemble evaluation routes through the :mod:`repro.api` facade
(:func:`repro.api.evaluate_realizations`), which solves every draw's LP in
the batched campaign kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels.fading import sample_gain_ensemble
from ..channels.gains import LinkGains
from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError

__all__ = ["OutageCurve", "sample_outage_curve", "outage_sum_rate"]


@dataclass(frozen=True)
class OutageCurve:
    """The empirical rate-vs-outage trade-off of one protocol.

    Attributes
    ----------
    protocol:
        The protocol evaluated.
    samples:
        Sorted per-realization optimal sum rates.
    """

    protocol: Protocol
    samples: np.ndarray

    def rate_at_outage(self, epsilon: float) -> float:
        """Largest rate whose outage probability is at most ``epsilon``.

        The empirical ε-quantile of the sum-rate distribution: a target
        rate equal to the returned value fails in at most an ε fraction of
        the observed fades.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise InvalidParameterError(
                f"outage level must lie in [0, 1], got {epsilon}"
            )
        return float(np.quantile(self.samples, epsilon))

    def outage_at_rate(self, target: float) -> float:
        """Empirical probability that the target rate is not supported."""
        if target < 0:
            raise InvalidParameterError(f"target must be >= 0, got {target}")
        return float(np.mean(self.samples < target))


def sample_outage_curve(
    protocol: Protocol,
    mean_gains: LinkGains,
    power: float,
    n_draws: int,
    rng: np.random.Generator,
    *,
    k_factor: float = 0.0,
    executor="vectorized",
    cache=None,
) -> OutageCurve:
    """Sample the per-fade optimal sum rate distribution of a protocol.

    ``executor`` selects a campaign executor (name or instance; ``None``
    means the engine default ``vectorized``). With a ``cache`` the
    ensemble evaluation is chunk-checkpointed under a content hash of the
    drawn realizations (see :func:`repro.api.evaluate_realizations`),
    making the 10⁵+-draw curves needed for outage studies resumable.
    """
    from ..api import evaluate_realizations

    if n_draws < 1:
        raise InvalidParameterError(f"need at least one draw, got {n_draws}")
    ensemble = sample_gain_ensemble(mean_gains, n_draws, rng, k_factor=k_factor)
    values = evaluate_realizations(
        protocol, ensemble, power, executor=executor, cache=cache
    )
    return OutageCurve(protocol=protocol, samples=np.sort(values))


def outage_sum_rate(
    protocol: Protocol,
    mean_gains: LinkGains,
    power: float,
    epsilon: float,
    n_draws: int,
    rng: np.random.Generator,
    *,
    k_factor: float = 0.0,
    executor="vectorized",
    cache=None,
) -> float:
    """The ε-outage sum rate of one protocol (see :class:`OutageCurve`)."""
    curve = sample_outage_curve(
        protocol,
        mean_gains,
        power,
        n_draws,
        rng,
        k_factor=k_factor,
        executor=executor,
        cache=cache,
    )
    return curve.rate_at_outage(epsilon)
