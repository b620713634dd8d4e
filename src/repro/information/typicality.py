"""Weak typicality tools for finite alphabets.

The achievability proofs of Theorems 2, 3 and 5 use jointly
(weakly) typical decoding: the decoder searches for the unique message whose
codeword is ``eps``-weakly typical with the received sequence. This module
implements the corresponding set computations for small alphabets so the
random-coding machinery can be exercised and tested end to end (it is also
used by the educational example in ``examples/two_way_dmc.py``).

For a distribution ``p`` over alphabet ``X``, a sequence ``x^n`` is
``eps``-weakly typical when::

    | -(1/n) log2 p(x^n) - H(X) | <= eps

Joint typicality applies the same test to every non-empty subset of the
variables, following the standard definition (Cover & Thomas, Section 15.2,
which is exactly the reference the paper's error analysis invokes).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from .discrete import entropy, marginal, validate_distribution

__all__ = [
    "empirical_log_likelihood",
    "is_weakly_typical",
    "is_jointly_typical",
    "typical_set_size",
    "typicality_probability",
]


def empirical_log_likelihood(p: np.ndarray, sequence: Sequence[int]) -> float:
    """``-(1/n) log2 p(x^n)`` for an i.i.d. source with marginal ``p``.

    Returns ``inf`` if the sequence uses a zero-probability symbol.
    """
    arr = validate_distribution(p)
    seq = np.asarray(sequence, dtype=int)
    if seq.ndim != 1 or seq.size == 0:
        raise InvalidParameterError("sequence must be a non-empty 1-D index array")
    if np.any((seq < 0) | (seq >= arr.shape[0])):
        raise InvalidParameterError(
            f"sequence symbols must index the alphabet of size {arr.shape[0]}"
        )
    probs = arr[seq]
    if np.any(probs == 0):
        return float("inf")
    return float(-np.mean(np.log2(probs)))


def is_weakly_typical(p: np.ndarray, sequence: Sequence[int], eps: float) -> bool:
    """Whether ``sequence`` is ``eps``-weakly typical for marginal ``p``."""
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    ll = empirical_log_likelihood(p, sequence)
    return abs(ll - entropy(p)) <= eps


def is_jointly_typical(
    p_joint: np.ndarray, sequences: Sequence[Sequence[int]], eps: float
) -> bool:
    """Joint weak typicality of parallel sequences w.r.t. a joint distribution.

    Parameters
    ----------
    p_joint:
        Joint distribution with one axis per variable.
    sequences:
        One index sequence per variable, all the same length.
    eps:
        Typicality slack.
    """
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    arr = validate_distribution(p_joint)
    seqs = [np.asarray(s, dtype=int) for s in sequences]
    if len(seqs) != arr.ndim:
        raise InvalidParameterError(
            f"expected {arr.ndim} sequences (one per axis), got {len(seqs)}"
        )
    lengths = {s.size for s in seqs}
    if len(lengths) != 1:
        raise InvalidParameterError(f"sequences must share a length, got {lengths}")
    axes = list(range(arr.ndim))
    for size in range(1, arr.ndim + 1):
        for subset in itertools.combinations(axes, size):
            sub_marginal = marginal(arr, list(subset))
            stacked = np.stack([seqs[axis] for axis in subset], axis=1)
            probs = sub_marginal[tuple(stacked.T)]
            if np.any(probs == 0):
                return False
            ll = float(-np.mean(np.log2(probs)))
            if abs(ll - entropy(sub_marginal)) > eps:
                return False
    return True


def typical_set_size(p: np.ndarray, n: int, eps: float) -> int:
    """Exact size of the ``eps``-weakly typical set of block length ``n``.

    Exponential in ``n * |X|``; intended for the small instances used in
    tests (this is a verification tool, not a production code path).
    """
    arr = validate_distribution(p)
    if n <= 0:
        raise InvalidParameterError(f"block length must be positive, got {n}")
    alphabet = range(arr.shape[0])
    count = 0
    for seq in itertools.product(alphabet, repeat=n):
        if is_weakly_typical(arr, list(seq), eps):
            count += 1
    return count


def typicality_probability(p: np.ndarray, n: int, eps: float) -> float:
    """Probability that an i.i.d. draw of length ``n`` is weakly typical.

    By the AEP this tends to one as ``n`` grows; the tests check the
    monotone trend on small alphabets.
    """
    arr = validate_distribution(p)
    if n <= 0:
        raise InvalidParameterError(f"block length must be positive, got {n}")
    total = 0.0
    alphabet = range(arr.shape[0])
    for seq in itertools.product(alphabet, repeat=n):
        seq_arr = np.asarray(seq, dtype=int)
        prob = float(np.prod(arr[seq_arr]))
        if prob > 0 and is_weakly_typical(arr, seq_arr, eps):
            total += prob
    return total
