"""Entropy and mutual information for discrete distributions.

The paper's Section II formulates the bidirectional relay channel over
*discrete memoryless channels*; Section IV then specializes to the Gaussian
case. This module provides the discrete machinery: entropies, mutual
informations and conditional mutual informations of finite-alphabet joint
distributions represented as numpy arrays whose axes are the random
variables.

Conventions
-----------
* A joint distribution over variables ``(X_0, ..., X_{k-1})`` is a
  ``k``-dimensional array ``p`` with ``p[x_0, ..., x_{k-1}] >= 0`` summing to
  one.
* All information quantities are in **bits**.
* ``0 log 0 = 0`` by continuity everywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidDistributionError

__all__ = [
    "validate_distribution",
    "normalize_distribution",
    "entropy",
    "joint_entropy",
    "marginal",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "kl_divergence",
    "product_distribution",
    "joint_from_channel",
]

_ATOL = 1e-9


def validate_distribution(p: np.ndarray, *, atol: float = _ATOL) -> np.ndarray:
    """Validate that ``p`` is a probability array; return it as ``float64``.

    Raises
    ------
    InvalidDistributionError
        If any entry is negative (beyond ``-atol``) or the total mass is not
        1 within ``atol``.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        raise InvalidDistributionError("distribution must be non-empty")
    if np.any(arr < -atol):
        raise InvalidDistributionError(f"negative probability entries in {arr!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, atol * arr.size):
        raise InvalidDistributionError(f"probabilities sum to {total}, expected 1")
    return np.clip(arr, 0.0, None)


def normalize_distribution(weights: np.ndarray) -> np.ndarray:
    """Normalize non-negative weights into a probability array."""
    arr = np.asarray(weights, dtype=float)
    if np.any(arr < 0):
        raise InvalidDistributionError(f"weights must be non-negative, got {arr!r}")
    total = float(arr.sum())
    if total <= 0:
        raise InvalidDistributionError("weights must have positive total mass")
    return arr / total


def _xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log2(p)`` with the convention ``0 log 0 = 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p * np.log2(p)
    return np.where(p > 0, out, 0.0)


def entropy(p: np.ndarray) -> float:
    """Shannon entropy ``H(p)`` in bits of a (possibly multi-axis) distribution."""
    arr = validate_distribution(p)
    return float(-_xlogx(arr).sum())


def joint_entropy(p_joint: np.ndarray) -> float:
    """Alias of :func:`entropy` for readability with joint arrays."""
    return entropy(p_joint)


def marginal(p_joint: np.ndarray, keep_axes: Sequence[int]) -> np.ndarray:
    """Marginalize a joint distribution onto the given axes.

    Parameters
    ----------
    p_joint:
        Joint distribution array.
    keep_axes:
        Axes (variable indices) to keep, in the order they should appear in
        the result.
    """
    arr = validate_distribution(p_joint)
    keep = list(keep_axes)
    if len(set(keep)) != len(keep):
        raise InvalidDistributionError(f"duplicate axes in {keep!r}")
    for axis in keep:
        if not -arr.ndim <= axis < arr.ndim:
            raise InvalidDistributionError(
                f"axis {axis} out of range for ndim={arr.ndim}"
            )
    keep = [axis % arr.ndim for axis in keep]
    drop = tuple(axis for axis in range(arr.ndim) if axis not in keep)
    summed = arr.sum(axis=drop)
    # ``sum`` preserves the relative order of the kept axes; permute to match
    # the caller's requested order.
    remaining = [axis for axis in range(arr.ndim) if axis not in drop]
    perm = [remaining.index(axis) for axis in keep]
    return np.transpose(summed, perm)


def conditional_entropy(
    p_joint: np.ndarray, target_axes: Sequence[int], given_axes: Sequence[int]
) -> float:
    """Conditional entropy ``H(X_target | X_given)`` in bits.

    Computed as ``H(target, given) - H(given)``.
    """
    target = list(target_axes)
    given = list(given_axes)
    if set(target) & set(given):
        raise InvalidDistributionError(
            f"target {target!r} and conditioning {given!r} axes overlap"
        )
    h_joint = entropy(marginal(p_joint, target + given))
    if not given:
        return h_joint
    h_given = entropy(marginal(p_joint, given))
    return h_joint - h_given


def mutual_information(
    p_joint: np.ndarray, axes_x: Sequence[int], axes_y: Sequence[int]
) -> float:
    """Mutual information ``I(X; Y)`` in bits between two groups of axes."""
    h_x = entropy(marginal(p_joint, axes_x))
    h_x_given_y = conditional_entropy(p_joint, axes_x, axes_y)
    return max(0.0, h_x - h_x_given_y)


def conditional_mutual_information(
    p_joint: np.ndarray,
    axes_x: Sequence[int],
    axes_y: Sequence[int],
    axes_z: Sequence[int],
) -> float:
    """Conditional mutual information ``I(X; Y | Z)`` in bits.

    Computed as ``H(X|Z) - H(X|Y,Z)``. This is the quantity appearing in the
    paper's Lemma 1 cut-set bound,
    ``I(X_S; Y_{S^c} | X_{S^c}, Q)``.
    """
    axes_x = list(axes_x)
    axes_y = list(axes_y)
    axes_z = list(axes_z)
    h_x_given_z = conditional_entropy(p_joint, axes_x, axes_z)
    h_x_given_yz = conditional_entropy(p_joint, axes_x, axes_y + axes_z)
    return max(0.0, h_x_given_z - h_x_given_yz)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback–Leibler divergence ``D(p || q)`` in bits.

    Returns ``inf`` when ``p`` puts mass where ``q`` does not.
    """
    p_arr = validate_distribution(p)
    q_arr = validate_distribution(q)
    if p_arr.shape != q_arr.shape:
        raise InvalidDistributionError(
            f"shape mismatch: {p_arr.shape} vs {q_arr.shape}"
        )
    if np.any((p_arr > 0) & (q_arr == 0)):
        return float("inf")
    mask = p_arr > 0
    return float(np.sum(p_arr[mask] * np.log2(p_arr[mask] / q_arr[mask])))


def product_distribution(*marginals: np.ndarray) -> np.ndarray:
    """Outer product of independent marginals into a joint array."""
    result = None
    for m in marginals:
        arr = validate_distribution(m)
        result = arr if result is None else np.multiply.outer(result, arr)
    if result is None:
        raise InvalidDistributionError("at least one marginal required")
    return result


def joint_from_channel(p_input: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Joint distribution ``p(x, y) = p(x) W(y|x)`` of an input and a DMC.

    Parameters
    ----------
    p_input:
        Input distribution, shape ``(|X|,)``.
    channel:
        Transition matrix ``W[x, y] = P(y | x)``, rows summing to one.
    """
    p_x = validate_distribution(p_input)
    w = np.asarray(channel, dtype=float)
    if w.ndim != 2 or w.shape[0] != p_x.shape[0]:
        raise InvalidDistributionError(
            f"channel shape {w.shape} incompatible with input {p_x.shape}"
        )
    if np.any(w < 0) or not np.allclose(w.sum(axis=1), 1.0, atol=1e-8):
        raise InvalidDistributionError("channel rows must be distributions")
    return p_x[:, None] * w
