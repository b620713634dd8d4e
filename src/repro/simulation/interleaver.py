"""Interleavers for burst-error dispersal.

The quasi-static channel of the paper does not itself create bursts, but
the successive-interference-cancellation stage of the MABC MAC phase does:
residual errors after subtracting an incorrectly decoded stronger user are
strongly correlated. A block (or seeded random) interleaver between the
convolutional code and the modulator whitens those residuals so the
Viterbi decoder sees approximately independent LLRs.

Both interleavers permute the *last* axis of their input, so a batch of
frames ``(n_rounds, n)`` is (de)interleaved in a single fancy-indexing
call — the layout of the batched link-level simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["BlockInterleaver", "RandomInterleaver", "identity_permutation"]


def identity_permutation(n: int) -> np.ndarray:
    """The identity permutation of length ``n``."""
    if n < 0:
        raise InvalidParameterError(f"length must be non-negative, got {n}")
    return np.arange(n)


@dataclass(frozen=True)
class BlockInterleaver:
    """Row-in / column-out block interleaver for lengths up to rows*cols.

    The sequence is written row-wise into an ``rows x cols`` matrix and
    read column-wise. Lengths that do not fill the matrix are handled by
    permuting only the positions that exist (a "pruned" block interleaver).
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise InvalidParameterError(
                f"rows and cols must be >= 1, got {self.rows}x{self.cols}"
            )

    def permutation(self, n: int) -> np.ndarray:
        """The read order for a sequence of length ``n``."""
        if n > self.rows * self.cols:
            raise InvalidParameterError(
                f"length {n} exceeds interleaver capacity {self.rows * self.cols}"
            )
        full = np.arange(self.rows * self.cols).reshape(self.rows, self.cols)
        read_order = full.T.reshape(-1)
        return read_order[read_order < n]

    def interleave(self, values: np.ndarray) -> np.ndarray:
        """Permute a sequence (the last axis of a batched array)."""
        arr = np.asarray(values)
        return arr[..., self.permutation(arr.shape[-1])]

    def deinterleave(self, values: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave`."""
        arr = np.asarray(values)
        perm = self.permutation(arr.shape[-1])
        out = np.empty_like(arr)
        out[..., perm] = arr
        return out


@dataclass(frozen=True)
class RandomInterleaver:
    """A fixed pseudo-random permutation derived from a seed.

    The permutation depends only on ``(seed, length)``, so transmitter and
    receiver agree without communication — codebook knowledge, in the
    paper's terms.
    """

    seed: int

    def permutation(self, n: int) -> np.ndarray:
        """The permutation for length ``n``, shared and read-only."""
        if n < 0:
            raise InvalidParameterError(f"length must be non-negative, got {n}")
        return _seeded_permutation(self.seed, n)

    def interleave(self, values: np.ndarray) -> np.ndarray:
        """Permute a sequence (the last axis of a batched array)."""
        arr = np.asarray(values)
        return arr[..., self.permutation(arr.shape[-1])]

    def deinterleave(self, values: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave`."""
        arr = np.asarray(values)
        perm = self.permutation(arr.shape[-1])
        out = np.empty_like(arr)
        out[..., perm] = arr
        return out


@lru_cache(maxsize=64)
def _seeded_permutation(seed: int, n: int) -> np.ndarray:
    """``default_rng(seed).permutation(n)``, drawn once per ``(seed, n)``.

    Every interleave and deinterleave of a frame length reads the same
    permutation, so it is memoized; it is returned read-only because
    every caller shares the one array.
    """
    permutation = np.random.default_rng(seed).permutation(n)
    permutation.flags.writeable = False
    return permutation
