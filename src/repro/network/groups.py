"""Finite group algebra for network coding and random binning.

The paper's achievability schemes combine messages algebraically at the
relay:

* **MABC (Theorem 2)**: the relay forwards ``w_r = ŵ_a ⊕ ŵ_b`` in the
  additive group ``L = max(⌊2^{nRa}⌋, ⌊2^{nRb}⌋)``; each terminal knows its
  own message, so the received group element pins down the partner's.
* **TDBC (Theorem 3)**: the relay forwards a sum of *bin indices*
  ``s_a(ŵ_a) ⊕ s_b(ŵ_b)`` where ``s_a`` is a random binning (partition) of
  ``a``'s message set.

This module implements both ingredients: cyclic additive groups ``Z_L``,
the bit-vector group ``GF(2)^k`` (component-wise XOR, the form used by the
coded-bidirectional references [4], [5]), and reproducible random binning
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["CyclicGroup", "XorGroup", "RandomBinning", "relay_combine", "relay_resolve"]


@dataclass(frozen=True)
class CyclicGroup:
    """The additive group ``Z_L`` of integers modulo ``order``."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvalidParameterError(f"group order must be >= 1, got {self.order}")

    def contains(self, element: int) -> bool:
        """Membership test."""
        return 0 <= int(element) < self.order

    def _check(self, *elements: int) -> None:
        for e in elements:
            if not self.contains(e):
                raise InvalidParameterError(f"{e} is not an element of Z_{self.order}")

    def add(self, x: int, y: int) -> int:
        """Group operation ``x + y (mod L)``."""
        self._check(x, y)
        return (int(x) + int(y)) % self.order

    def negate(self, x: int) -> int:
        """Additive inverse."""
        self._check(x)
        return (-int(x)) % self.order

    def subtract(self, x: int, y: int) -> int:
        """``x - y (mod L)``; resolves a partner message from a relay sum."""
        self._check(x, y)
        return (int(x) - int(y)) % self.order

    @property
    def identity(self) -> int:
        """The neutral element."""
        return 0


@dataclass(frozen=True)
class XorGroup:
    """The group ``GF(2)^k`` under component-wise XOR, elements as ints."""

    n_bits: int

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise InvalidParameterError(f"bit width must be >= 1, got {self.n_bits}")

    @property
    def order(self) -> int:
        """Number of elements, ``2^k``."""
        return 1 << self.n_bits

    def contains(self, element: int) -> bool:
        """Membership test."""
        return 0 <= int(element) < self.order

    def _check(self, *elements: int) -> None:
        for e in elements:
            if not self.contains(e):
                raise InvalidParameterError(
                    f"{e} is not an element of GF(2)^{self.n_bits}"
                )

    def add(self, x: int, y: int) -> int:
        """Group operation: bitwise XOR (self-inverse)."""
        self._check(x, y)
        return int(x) ^ int(y)

    def negate(self, x: int) -> int:
        """Additive inverse (XOR is an involution, so this is the identity map)."""
        self._check(x)
        return int(x)

    def subtract(self, x: int, y: int) -> int:
        """Same as :meth:`add` since every element is its own inverse."""
        return self.add(x, y)

    @property
    def identity(self) -> int:
        """The neutral element."""
        return 0


@dataclass(frozen=True)
class RandomBinning:
    """A uniform random partition of ``{0..n_messages-1}`` into bins.

    Implements the paper's ``s_a(w_a)`` (proof of Theorem 3): every message
    index is independently and uniformly assigned one of ``n_bins`` bin
    indices. The partition is drawn once from the supplied RNG and then
    fixed (codebook knowledge shared by all nodes).
    """

    n_messages: int
    n_bins: int
    assignment: np.ndarray

    def __init__(self, n_messages: int, n_bins: int, rng: np.random.Generator) -> None:
        if n_messages < 1:
            raise InvalidParameterError(f"need at least one message, got {n_messages}")
        if n_bins < 1:
            raise InvalidParameterError(f"need at least one bin, got {n_bins}")
        assignment = rng.integers(0, n_bins, size=n_messages)
        object.__setattr__(self, "n_messages", int(n_messages))
        object.__setattr__(self, "n_bins", int(n_bins))
        object.__setattr__(self, "assignment", assignment)

    def bin_index(self, message: int) -> int:
        """``s(w)``: the bin index of a message."""
        if not 0 <= int(message) < self.n_messages:
            raise InvalidParameterError(
                f"message {message} outside {{0..{self.n_messages - 1}}}"
            )
        return int(self.assignment[int(message)])

    def bin_members(self, bin_idx: int) -> np.ndarray:
        """All messages assigned to a bin (the decoder's candidate list)."""
        if not 0 <= int(bin_idx) < self.n_bins:
            raise InvalidParameterError(
                f"bin {bin_idx} outside {{0..{self.n_bins - 1}}}"
            )
        return np.flatnonzero(self.assignment == int(bin_idx))


def relay_combine(group, w_a: int, w_b: int) -> int:
    """The relay's network-coded transmission content ``w_a ⊕ w_b``."""
    return group.add(w_a, w_b)


def relay_resolve(group, combined: int, own_message: int) -> int:
    """Recover the partner's message from the relay sum and own message.

    In ``Z_L``: ``w_partner = combined - own``; in ``GF(2)^k`` the same
    expression with XOR. This is the side-information decoding step of
    Theorem 2's decoder ("since ``w_r = w_a ⊕ w_b`` and ``a`` knows
    ``w_a``...").
    """
    return group.subtract(combined, own_message)
