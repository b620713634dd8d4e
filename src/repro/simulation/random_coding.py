"""Random-coding achievability for MABC (Theorem 2), made runnable.

The paper proves Theorem 2 with random codebooks: terminals encode with
independently drawn codewords, the relay decodes the *pair* ``(w_a, w_b)``
from the multiple-access phase, forwards ``w_r = w_a ⊕ w_b`` from a third
codebook, and each terminal resolves its partner's message using its own
message as side information. This module executes that construction on the
binary relay channel of :mod:`repro.channels.binary_relay`:

* phase 1 — the noisy XOR MAC ``Y_r = C_a(w_a) ⊕ C_b(w_b) ⊕ Z``;
* phase 2 — BSC broadcast of ``C_r(w_a ⊕ w_b)`` to both terminals;
* decoding — maximum-likelihood (minimum Hamming distance; exactly ML for
  binary symmetric noise and uniform messages) by default, or the paper's
  weak-typicality decoder for demonstration at small block lengths.

The Monte-Carlo error rates exhibit exactly the Theorem-2 phase
transition: rate pairs inside the region decode reliably as the block
length grows, pairs outside it fail — see the tests and
``bench_ablation_random_coding.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels.binary_relay import BinaryRelayChannel
from ..exceptions import InvalidParameterError
from ..information.functions import binary_entropy

__all__ = [
    "RandomBinaryCodebook",
    "MabcRandomCodingReport",
    "mabc_rate_pair_feasible",
    "simulate_mabc_random_coding",
]


@dataclass(frozen=True)
class RandomBinaryCodebook:
    """A random binary codebook: ``n_messages`` i.i.d. uniform codewords.

    This is the paper's random code generation step ("we generate random
    (n·Δ)-length sequences x(w) ... according to p(x)") with the uniform
    input distribution, which is capacity-achieving for every symmetric
    binary channel in the model.
    """

    codewords: np.ndarray

    def __init__(
        self, n_messages: int, block_length: int, rng: np.random.Generator
    ) -> None:
        if n_messages < 1:
            raise InvalidParameterError(f"need >= 1 message, got {n_messages}")
        if block_length < 1:
            raise InvalidParameterError(f"need >= 1 symbol, got {block_length}")
        words = rng.integers(0, 2, size=(n_messages, block_length), dtype=np.uint8)
        object.__setattr__(self, "codewords", words)

    @property
    def n_messages(self) -> int:
        """Codebook size."""
        return self.codewords.shape[0]

    @property
    def block_length(self) -> int:
        """Codeword length in channel uses."""
        return self.codewords.shape[1]

    def codeword(self, message: int) -> np.ndarray:
        """The codeword of one message index."""
        if not 0 <= message < self.n_messages:
            raise InvalidParameterError(
                f"message {message} outside {{0..{self.n_messages - 1}}}"
            )
        return self.codewords[message]

    def ml_decode(self, received: np.ndarray) -> int:
        """Minimum-Hamming-distance decoding (ML for BSC noise < 1/2)."""
        y = np.asarray(received, dtype=np.uint8)
        distances = np.bitwise_xor(self.codewords, y[None, :]).sum(axis=1)
        return int(np.argmin(distances))


@dataclass(frozen=True)
class MabcRandomCodingReport:
    """Monte-Carlo outcome of the Theorem-2 random-coding construction.

    Attributes
    ----------
    n_trials:
        Number of independent codebook/message/noise draws.
    relay_error_rate:
        Fraction of trials where the relay mis-decoded the message pair
        (the events ``E_a,r ∪ E_b,r`` of the paper's error analysis).
    error_rate_a_to_b / error_rate_b_to_a:
        End-to-end message error rates per direction (``E_{a,b}``,
        ``E_{b,a}``).
    """

    n_trials: int
    relay_error_rate: float
    error_rate_a_to_b: float
    error_rate_b_to_a: float

    @property
    def max_error_rate(self) -> float:
        """The worse of the two directions."""
        return max(self.error_rate_a_to_b, self.error_rate_b_to_a)


def mabc_rate_pair_feasible(
    channel: BinaryRelayChannel, n_mac: int, n_broadcast: int, bits_a: int, bits_b: int
) -> bool:
    """Whether ``(bits_a, bits_b)`` lies inside the Theorem-2 region.

    Evaluates the MABC constraints on the binary channel with the given
    split of channel uses (``Δ1 = n_mac / n``, ``Δ2 = n_broadcast / n``):
    the relay must decode both messages from the XOR MAC and each terminal
    must decode the (XOR-combined) broadcast.
    """
    if min(n_mac, n_broadcast, bits_a, bits_b) < 0:
        raise InvalidParameterError("block lengths and bit counts must be >= 0")
    mac_capacity = 1.0 - binary_entropy(channel.p_mac)
    cap_ra_relay = n_mac * mac_capacity       # I(Xa; Yr | Xb) per use
    cap_rb_relay = n_mac * mac_capacity
    cap_sum_relay = n_mac * mac_capacity      # XOR MAC: sum = individual
    cap_a_bc = n_broadcast * (1.0 - binary_entropy(channel.crossover("b", "r")))
    cap_b_bc = n_broadcast * (1.0 - binary_entropy(channel.crossover("a", "r")))
    return (
        bits_a <= cap_ra_relay
        and bits_a <= cap_a_bc
        and bits_b <= cap_rb_relay
        and bits_b <= cap_b_bc
        and bits_a + bits_b <= cap_sum_relay
    )


def _bsc_noise(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    return (rng.random(n) < p).astype(np.uint8)


def simulate_mabc_random_coding(
    channel: BinaryRelayChannel,
    *,
    n_mac: int,
    n_broadcast: int,
    bits_a: int,
    bits_b: int,
    n_trials: int,
    rng: np.random.Generator,
) -> MabcRandomCodingReport:
    """Run the Theorem-2 construction end to end ``n_trials`` times.

    Each trial draws fresh codebooks (the random-coding ensemble average),
    uniform messages and channel noise, then:

    1. terminals transmit their codewords simultaneously; the relay
       ML-decodes the pair from ``y_r = c_a ⊕ c_b ⊕ z``;
    2. the relay broadcasts ``C_r(ŵ_a ⊕ ŵ_b)`` (XOR of message indices,
       the group ``L`` of the paper with ``L = 2^max(bits)``);
    3. each terminal ML-decodes ``w_r`` and resolves the partner message
       by XOR-ing its own message back out.
    """
    if n_trials < 1:
        raise InvalidParameterError(f"need >= 1 trial, got {n_trials}")
    if bits_a < 1 or bits_b < 1:
        raise InvalidParameterError("each terminal needs at least one bit")
    size_a, size_b = 1 << bits_a, 1 << bits_b
    size_r = max(size_a, size_b)
    # The relay's exhaustive pair decoder materializes a
    # (size_a, size_b, n_mac) array; refuse configurations that would
    # silently exhaust memory (this is a proof-of-theorem tool, not a
    # production decoder).
    pair_bytes = size_a * size_b * n_mac
    if pair_bytes > (1 << 27):
        raise InvalidParameterError(
            f"pair decoding would allocate {pair_bytes / 2 ** 20:.0f} MiB "
            f"(bits_a={bits_a}, bits_b={bits_b}, n_mac={n_mac}); keep "
            "2^(bits_a+bits_b) * n_mac below 128 MiB"
        )

    relay_errors = errors_ab = errors_ba = 0
    p_mac = channel.p_mac
    p_ra = channel.crossover("a", "r")
    p_rb = channel.crossover("b", "r")

    for _ in range(n_trials):
        book_a = RandomBinaryCodebook(size_a, n_mac, rng)
        book_b = RandomBinaryCodebook(size_b, n_mac, rng)
        book_r = RandomBinaryCodebook(size_r, n_broadcast, rng)
        w_a = int(rng.integers(size_a))
        w_b = int(rng.integers(size_b))

        # Phase 1: XOR MAC into the relay; ML decoding over message pairs.
        y_r = (
            book_a.codeword(w_a) ^ book_b.codeword(w_b) ^ _bsc_noise(rng, p_mac, n_mac)
        )
        xor_words = np.bitwise_xor(
            book_a.codewords[:, None, :], book_b.codewords[None, :, :]
        )
        distances = np.bitwise_xor(xor_words, y_r[None, None, :]).sum(axis=2)
        flat = int(np.argmin(distances))
        w_a_hat, w_b_hat = divmod(flat, size_b)
        relay_ok = (w_a_hat == w_a and w_b_hat == w_b)
        if not relay_ok:
            relay_errors += 1

        # Phase 2: network-coded broadcast of the XOR of message indices.
        w_r = w_a_hat ^ w_b_hat
        c_r = book_r.codeword(w_r)
        y_a = c_r ^ _bsc_noise(rng, p_ra, n_broadcast)
        y_b = c_r ^ _bsc_noise(rng, p_rb, n_broadcast)

        # Terminals: decode w_r, strip own message by XOR (side info).
        w_b_at_a = book_r.ml_decode(y_a) ^ w_a
        w_a_at_b = book_r.ml_decode(y_b) ^ w_b
        if w_a_at_b != w_a:
            errors_ab += 1
        if w_b_at_a != w_b:
            errors_ba += 1

    return MabcRandomCodingReport(
        n_trials=n_trials,
        relay_error_rate=relay_errors / n_trials,
        error_rate_a_to_b=errors_ab / n_trials,
        error_rate_b_to_a=errors_ba / n_trials,
    )
