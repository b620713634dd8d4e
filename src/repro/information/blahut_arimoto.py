"""Blahut–Arimoto computation of discrete memoryless channel capacity.

The general (pre-Gaussian) formulation of the paper's bounds maximizes
mutual-information expressions over input distributions. For single-input
discrete channels that maximization is exactly the channel capacity problem,
solved here with the classical Blahut–Arimoto alternating-maximization
algorithm.

The implementation follows the standard iteration:

.. math::

    q_{t}(x|y) \\propto p_t(x) W(y|x), \\qquad
    p_{t+1}(x) \\propto \\exp\\Big(\\sum_y W(y|x) \\ln q_t(x|y)\\Big)

with capacity bracketing via the standard lower/upper bounds
(max over ``x`` of the divergence gives an upper bound, the current mutual
information a lower bound), so convergence is certified, not assumed.

Input elimination. When two input rows are near-duplicates, the plain
iteration moves mass between them at a rate set by their tiny divergence
difference, and the gap can stall for well over ``10^5`` iterations (a
3×2 channel whose two inputs differ by ``1e-4`` in probability is
enough). Each iteration therefore also tries to move *all* the mass of
the worst carried input ``w`` (smallest divergence) onto the best input
``b`` (largest divergence), and does so when that provably does not lower
the mutual information:

* Along ``p_m = p + m (e_b − e_w)``, ``m ∈ [0, p(w)]``, the mutual
  information is concave in ``m`` with derivative ``D(W_b || q_m) −
  D(W_w || q_m)`` (nats), where ``q_m = q + m (W_b − W_w)``. If that
  derivative is still ``>= 0`` at ``m = p(w)``, it is ``>= 0`` on the
  whole segment, so ``I(p_{p(w)}) >= I(p)``: the move is an exact line
  search that lands on the boundary.

The eliminated input is not proven useless, and the result does not
depend on it being so:

* The certificate is evaluated on the *full* alphabet: ``max_x D(W_x ||
  q)`` runs over every input, eliminated or not (an output only
  eliminated inputs reach gives ``+∞``), and the lower bound is the
  mutual information of a distribution on the full alphabet. So the
  capacity always lies in ``[lower, upper]`` and the returned value is
  within ``tol`` of it.
* An elimination cannot stall the iteration. On an input set ``A`` with
  capacity ``C_A < C`` the iteration converges to the output ``q_A`` at
  which every input of ``A`` has divergence at most ``C_A``, while
  ``max_x D(W_x || q) >= C`` for every ``q``. The best input then
  carries no mass, and it is re-admitted with mass ``1/|X|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError, InvalidDistributionError
from .discrete import joint_from_channel, mutual_information

__all__ = ["BlahutArimotoResult", "blahut_arimoto", "channel_capacity"]


@dataclass(frozen=True)
class BlahutArimotoResult:
    """Outcome of a Blahut–Arimoto run.

    Attributes
    ----------
    capacity:
        Channel capacity in bits per channel use.
    input_distribution:
        Capacity-achieving input distribution.
    iterations:
        Number of iterations performed.
    gap:
        Final certified gap between the upper and lower capacity bounds.
    """

    capacity: float
    input_distribution: np.ndarray
    iterations: int
    gap: float


def _full_move_slope(w, w_log_w, q_y, mass, best, worst) -> float:
    """Slope of ``I(p)`` at the end of moving ``mass`` from ``worst`` to ``best``.

    ``D(W_best || q_m) - D(W_worst || q_m)`` in nats at ``q_m = q_y +
    mass · (W_best - W_worst)``; ``-inf`` when the move empties an output
    that ``worst`` reaches.
    """
    diff = w[best] - w[worst]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(diff != 0.0, diff * np.log(q_y + mass * diff), 0.0)
    return float(w_log_w[best] - w_log_w[worst] - terms.sum())


def blahut_arimoto(
    channel: np.ndarray, *, tol: float = 1e-10, max_iter: int = 10_000
) -> BlahutArimotoResult:
    """Compute the capacity of a DMC with transition matrix ``W[x, y]``.

    Parameters
    ----------
    channel:
        Row-stochastic transition matrix, shape ``(|X|, |Y|)``.
    tol:
        Certified absolute gap (in bits) at which to stop.
    max_iter:
        Iteration budget; :class:`~repro.exceptions.ConvergenceError` is
        raised if the gap has not closed by then.

    Returns
    -------
    BlahutArimotoResult
    """
    w = np.asarray(channel, dtype=float)
    if w.ndim != 2:
        raise InvalidDistributionError(f"channel must be a matrix, got ndim={w.ndim}")
    if np.any(w < 0) or not np.allclose(w.sum(axis=1), 1.0, atol=1e-8):
        raise InvalidDistributionError("channel rows must be probability vectors")
    n_inputs = w.shape[0]
    p = np.full(n_inputs, 1.0 / n_inputs)

    # Precompute W log W rows (natural log for numerical convenience).
    with np.errstate(divide="ignore", invalid="ignore"):
        w_log_w = np.where(w > 0, w * np.log(w), 0.0).sum(axis=1)

    last_lower = 0.0
    for iteration in range(1, max_iter + 1):
        q_y = p @ w  # output distribution
        with np.errstate(divide="ignore", invalid="ignore"):
            # d[x] = D(W(.|x) || q) in nats: sum_y W(y|x) ln(W(y|x)/q(y)),
            # +inf for an input reaching an output no carried input reaches.
            w_log_q = np.where(w > 0, w * np.log(q_y)[None, :], 0.0)
        d = w_log_w - w_log_q.sum(axis=1)
        # Bounds (nats): lower = I(p, W), upper = max_x d[x] over all inputs.
        support = p > 0
        lower_nats = float(np.dot(p[support], d[support]))
        upper_nats = float(np.max(d))
        lower = lower_nats / np.log(2.0)
        upper = upper_nats / np.log(2.0)
        last_lower = lower
        if upper - lower < tol:
            return BlahutArimotoResult(
                capacity=lower,
                input_distribution=p.copy(),
                iterations=iteration,
                gap=upper - lower,
            )
        best = int(np.argmax(d))
        if p[best] == 0.0:
            # The best input carries no mass (eliminated, or underflowed).
            p[best] = 1.0 / n_inputs
            p /= p.sum()
            continue
        worst = int(np.flatnonzero(support)[np.argmin(d[support])])
        slope = _full_move_slope(w, w_log_w, q_y, p[worst], best, worst)
        if worst != best and slope >= 0.0:
            p[best] += p[worst]
            p[worst] = 0.0
            continue
        # Multiplicative update; subtract max(d) for numerical stability.
        scaled = p * np.exp(d - upper_nats)
        p = scaled / scaled.sum()

    raise ConvergenceError(
        f"Blahut–Arimoto did not converge to tol={tol} in {max_iter} iterations "
        f"(last lower bound {last_lower:.12f} bits)"
    )


def channel_capacity(
    channel: np.ndarray, *, tol: float = 1e-10, max_iter: int = 10_000
) -> float:
    """Capacity in bits of the DMC ``channel``; thin wrapper over BA.

    The result is cross-checkable against :func:`mutual_information` with the
    returned input distribution; tests do exactly that.
    """
    result = blahut_arimoto(channel, tol=tol, max_iter=max_iter)
    # Defensive cross-check: MI of the returned distribution must match.
    joint = joint_from_channel(
        result.input_distribution, np.asarray(channel, dtype=float)
    )
    mi = mutual_information(joint, [0], [1])
    if abs(mi - result.capacity) > 1e-6:
        raise ConvergenceError(
            f"BA self-check failed: MI={mi} vs capacity={result.capacity}"
        )
    return result.capacity
