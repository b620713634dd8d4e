"""Convolutional coding with Viterbi decoding (hard and soft decision).

The paper's achievability proofs use random coding; an operational system
needs a concrete code. We use zero-terminated feed-forward convolutional
codes — the workhorse of the cooperative-diversity literature the paper
builds on — with maximum-likelihood Viterbi decoding:

* the NASA-standard rate-1/2, constraint-length-7 code ``(133, 171)``
  (octal) as the production default, and
* the small ``(5, 7)`` constraint-length-3 code for fast tests.

Encoding is a binary convolution (numpy ``convolve`` mod 2, or shift-XORs
for a batch); decoding is a vectorized add-compare-select over the
2^(K-1)-state trellis with traceback. LLR inputs use the
``LLR > 0 ⇔ bit = 0`` convention of :mod:`repro.simulation.modulation`.

Both operations also exist batched over a leading *frames* axis
(:meth:`ConvolutionalCode.encode_rows` / :meth:`~ConvolutionalCode
.decode_rows`). :meth:`~ConvolutionalCode.decode` is the per-frame
oracle; ``decode_rows`` is one exact fast path in two parts, and row
``r`` of its result equals ``decode(llr_rows[r], n)`` bit for bit — the
property the batched link-level simulation kernel relies on, mirroring
the campaign kernel's contract.

**(a) Butterfly ACS.** With ``next = (bit << (K-2)) | (state >> 1)``,
states ``s`` and ``s + S/2`` share the predecessors ``(2s, 2s+1)``, slot
0 on the even one. The ACS keeps its metrics state-major, shape
``(S, R)``, and reads the strided views ``metrics[0::2]`` and
``metrics[1::2]`` instead of gathering them. Branch metrics come from a
table of every ±1 sign pattern, built by broadcasting with the same
exact sign flips, tap-order sum and final halving as
:func:`_branch_metrics`, so each entry equals the oracle's value. One
gather per block of steps puts the table in butterfly order. When every
generator taps the oldest register bit, slot 1's pattern complements
slot 0's, so its metric is ``-bm`` and the ACS subtracts. That is exact:
IEEE rounding is symmetric in sign, so ``-(a + b) = (-a) + (-b)``,
``0.5·(-x) = -(0.5·x)`` and ``m - x = m + (-x)``. For (133, 171) and
(5, 7) the four branches of every butterfly are thus ``±bm``. The
decision is ``cand1 > cand0``, which keeps slot 0 on ties like
``argmax``. The new metric is ``maximum(cand0, cand1)``, the value
``argmax`` picks, except that of two equal zeros it may keep the other
sign, which no later sum or comparison can tell apart. A NaN candidate
needs an infinite metric, so only batches with an infinite LLR or an
overflowing sum add ``argmax``'s rule that the first NaN wins. Every
operation is elementwise along the rows, so each row sees the oracle's
sequence of roundings.

**(b) Certified codeword shortcut.** Let ``c = (llr < 0)`` be a row's
hard decisions. With ``Σ_j a_j·g_j = 1`` over GF(2)[D] (extended Euclid
on the generators, once per code), ``u = Σ_j a_j·c_j`` recovers the
information word whenever ``c`` is a codeword. If ``encode(u) == c``,
then ``c`` is a terminated codeword that agrees in sign with every LLR,
so it has the largest exact metric ``M(c) = ½·A`` with ``A = Σ|llr|``.
A row whose certificate holds returns ``u`` and skips the ACS. The
certificate is that every LLR is normal (finite, non-zero, not
subnormal), ``A ≤ 2^1020`` and ``δ > 2·γ_{T+n}·A``, where ``δ`` is the
sum of the ``d_free`` smallest ``|llr|``, ``γ_k = k·u/(1 − k·u)`` and
``u = 2^-53``. The proof has three steps.

1. Take any state ``σ`` on ``c``'s path at step ``t + 1``. The rival
   candidate there is a path ``p`` from state 0 that differs from
   ``c``'s prefix. By linearity ``p ⊕ c`` leaves state 0 and returns to
   it, so it has weight at least ``d_free``. The exact metrics therefore
   satisfy ``M(c) − M(p) = Σ_{i: p_i ≠ c_i} |llr_i| ≥ δ``.
2. A survivor's float metric is the float running sum along its own
   path. Each branch sum has ``n − 1`` additions and each metric at most
   ``T``, so relative errors compose to ``γ_{T+n}``. Halving a sum is
   exact unless the result is subnormal, which adds at most ``2^-1075``
   per step. So ``|M̂ − M| ≤ ½·γ_{T+n}·A + (1 + γ_T)·T·2^-1075``.
   All-normal LLRs give ``γ_{T+n}·A ≥ (T+n)·nT·2^-1075 ≥ 3T·2^-1075``
   (``T ≥ 2``), so twice the error is at most ``2·γ_{T+n}·A``.
   ``A ≤ 2^1020`` keeps every value finite.
3. Hence ``cand_c − cand_p ≥ δ − 2·γ_{T+n}·A > 0`` at every step. Both
   ``decode`` and the ACS keep ``c``'s branch strictly, and the
   traceback from state 0 returns ``u``.

The code tests ``δ̂ > 4·γ_{T+n}·Â`` on the float sums. The extra factor
2 covers their own rounding, a relative ``γ_N`` ≪ 1. Rows that fail
the certificate run the butterfly ACS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidParameterError
from .bits import as_bit_rows, as_bits

__all__ = ["ConvolutionalCode", "NASA_CODE", "TEST_CODE"]

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
#: Largest row sum of |LLR| whose path metrics provably stay finite.
_SUM_LIMIT = 2.0**1020
#: Branch-metric values the butterfly ACS precomputes per block of steps.
_BLOCK_ELEMENTS = 1 << 16


def _taps_from_octal(octal_value: int, constraint_length: int) -> np.ndarray:
    """MSB-first tap array of a generator given in octal, e.g. 0o133 -> 1011011."""
    if octal_value <= 0:
        raise InvalidParameterError(f"generator must be positive, got {octal_value}")
    if octal_value.bit_length() > constraint_length:
        raise InvalidParameterError(
            f"generator 0o{octal_value:o} needs {octal_value.bit_length()} taps, "
            f"but constraint length is {constraint_length}"
        )
    return np.array(
        [
            (octal_value >> (constraint_length - 1 - i)) & 1
            for i in range(constraint_length)
        ],
        dtype=np.uint8,
    )


def _branch_metrics(pred_signs: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Per-slot branch metrics ``0.5 * sum_j signs[..., j] * llr[..., j]``.

    ``pred_signs`` has shape ``(S, 2, n_outputs)``; ``llrs`` carries the
    step's LLRs in its last axis with any leading batch shape. The sum is
    accumulated term by term in tap order on every path (scalar and
    batched decode share this helper), so batching can never change a
    metric bit.
    """
    lead = llrs.shape[:-1]
    signs = pred_signs.reshape((1,) * len(lead) + pred_signs.shape)
    acc = signs[..., 0] * llrs[..., 0][..., None, None]
    for j in range(1, pred_signs.shape[-1]):
        acc = acc + signs[..., j] * llrs[..., j][..., None, None]
    return 0.5 * acc


def _pattern_metrics(planes: np.ndarray) -> np.ndarray:
    """Branch metrics of every ±1 sign pattern, shape ``(T, 2^n, R)``.

    ``planes[j]`` holds coded output ``j``'s LLRs as a ``(T, R)`` plane.
    Pattern ``c`` flips output ``j`` when bit ``j`` of ``c`` is set. The
    flips are exact and the sum runs in tap order and is halved last, as
    in :func:`_branch_metrics`, so every value equals the oracle's metric.
    """
    n_outputs = planes.shape[0]
    bits = (np.arange(1 << n_outputs)[:, None] >> np.arange(n_outputs)) & 1
    signs = 1.0 - 2.0 * bits
    acc = signs[:, 0, None] * planes[0][:, None, :]
    for j in range(1, n_outputs):
        acc = acc + signs[:, j, None] * planes[j][:, None, :]
    return 0.5 * acc


def _gf2_mul(a: int, b: int) -> int:
    """Product of two GF(2)[D] polynomials (bit ``i`` holds ``D^i``)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    return product


def _gf2_bezout(a: int, b: int) -> tuple:
    """``(g, x, y)`` with ``x·a ⊕ y·b = g = gcd(a, b)`` over GF(2)[D]."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quotient, remainder = 0, a
        while remainder.bit_length() >= b.bit_length():
            shift = remainder.bit_length() - b.bit_length()
            quotient ^= 1 << shift
            remainder ^= b << shift
        a, b = b, remainder
        x0, x1 = x1, x0 ^ _gf2_mul(quotient, x1)
        y0, y1 = y1, y0 ^ _gf2_mul(quotient, y1)
    return a, x0, y0


def _bezout_inverse(polynomials) -> tuple | None:
    """Polynomials ``a_j`` with ``Σ_j a_j·g_j = 1``, or ``None`` if none exist.

    Folds the extended Euclidean algorithm over the generators, keeping
    ``Σ_j a_j·g_j = gcd(g_0, ..., g_j)``. The gcd is 1 exactly when the
    code is not catastrophic.
    """
    gcd, coefficients = polynomials[0], [1] + [0] * (len(polynomials) - 1)
    for j in range(1, len(polynomials)):
        gcd, x, y = _gf2_bezout(gcd, polynomials[j])
        coefficients = [_gf2_mul(x, c) for c in coefficients]
        coefficients[j] = y
    return tuple(coefficients) if gcd == 1 else None


def _free_distance(next_state: np.ndarray, outputs: np.ndarray) -> int:
    """Least Hamming weight of a path that leaves state 0 and returns to it."""
    weight = outputs.sum(axis=2)
    distance = np.full(len(next_state), np.inf)
    distance[next_state[0, 1]] = weight[0, 1]
    for _ in range(len(next_state)):  # Bellman-Ford; weights are >= 0
        np.minimum.at(distance, next_state, distance[:, None] + weight)
    return int(distance[0])


def _shift_xor_rows(rows: np.ndarray, polynomial: int, span: int) -> np.ndarray:
    """Each bit row times a GF(2)[D] polynomial, in ``span`` columns.

    ``span`` must be at least the row width plus the polynomial's degree.
    Every row then ends in enough zeros that a shift never spills into
    the next row, so each term ``D^p`` is one XOR over the flat batch.
    """
    n_rows, width = rows.shape
    padded = np.zeros((n_rows, span), dtype=np.uint8)
    padded[:, :width] = rows
    source = padded.ravel()
    product = np.zeros(n_rows * span, dtype=np.uint8)
    for p in range(polynomial.bit_length()):
        if (polynomial >> p) & 1:
            product[p:] ^= source[: source.size - p]
    return product.reshape(n_rows, span)


@dataclass(frozen=True)
class ConvolutionalCode:
    """A rate ``1/n`` zero-terminated feed-forward convolutional code.

    Attributes
    ----------
    generators:
        Generator polynomials in octal, MSB aligned with the *current*
        input bit.
    constraint_length:
        ``K``; the trellis has ``2^(K-1)`` states.
    """

    generators: tuple
    constraint_length: int
    _tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __init__(self, generators, constraint_length: int) -> None:
        object.__setattr__(self, "generators", tuple(int(g) for g in generators))
        object.__setattr__(self, "constraint_length", int(constraint_length))
        object.__setattr__(self, "_tables", {})
        if self.constraint_length < 2:
            raise InvalidParameterError(
                f"constraint length must be >= 2, got {constraint_length}"
            )
        if not self.generators:
            raise InvalidParameterError("at least one generator required")
        for g in self.generators:
            _taps_from_octal(g, self.constraint_length)  # validates

    @property
    def n_outputs(self) -> int:
        """Coded bits per input bit (the code has rate ``1/n_outputs``)."""
        return len(self.generators)

    @property
    def n_states(self) -> int:
        """Number of trellis states, ``2^(K-1)``."""
        return 1 << (self.constraint_length - 1)

    def n_coded_bits(self, n_info_bits: int) -> int:
        """Coded length for a zero-terminated block of ``n_info_bits``."""
        if n_info_bits < 1:
            raise InvalidParameterError(
                f"block must contain at least one bit, got {n_info_bits}"
            )
        return (n_info_bits + self.constraint_length - 1) * self.n_outputs

    def encode(self, bits) -> np.ndarray:
        """Encode a block (zero termination appended automatically).

        Output bits are interleaved per trellis step:
        ``[out_0(t=0), out_1(t=0), ..., out_0(t=1), ...]``.
        """
        info = as_bits(bits)
        if info.size == 0:
            raise InvalidParameterError("cannot encode an empty block")
        k = self.constraint_length
        streams = []
        for g in self.generators:
            taps = _taps_from_octal(g, k).astype(np.int64)
            # 'full' convolution implies zeros outside the block, which is
            # exactly zero termination: T = len(info) + K - 1 trellis steps.
            conv = np.convolve(info.astype(np.int64), taps, mode="full") % 2
            streams.append(conv.astype(np.uint8))
        stacked = np.stack(streams, axis=1)  # (T, n_outputs)
        return stacked.reshape(-1)

    def encode_rows(self, bit_rows) -> np.ndarray:
        """Encode a batch of equal-length blocks, shape ``(R, n_coded)``.

        The mod-2 convolution is evaluated as an XOR accumulation of
        tap-shifted copies of the whole batch (one NumPy op per set tap,
        at most ``K * n_outputs`` in total), which is exactly the zero
        padding — and therefore the zero termination — of the scalar
        :meth:`encode`; equality is asserted in the tests.
        """
        info = as_bit_rows(bit_rows)
        if info.shape[1] == 0:
            raise InvalidParameterError("cannot encode an empty block")
        return self._encode_rows(info)

    def _encode_rows(self, info: np.ndarray) -> np.ndarray:
        """:meth:`encode_rows` on an already validated ``(R, n)`` uint8 batch."""
        n_rows, n_info = info.shape
        n_steps = n_info + self.constraint_length - 1
        streams = [
            _shift_xor_rows(info, g, n_steps) for g in self._trellis()["polynomials"]
        ]
        return np.stack(streams, axis=2).reshape(n_rows, n_steps * self.n_outputs)

    def _trellis(self) -> dict:
        """Build (and cache) the trellis, Bezout and free-distance tables."""
        if self._tables:
            return self._tables
        k = self.constraint_length
        n_states = self.n_states
        taps = [_taps_from_octal(g, k).astype(np.int64) for g in self.generators]
        tap_ints = [int("".join(map(str, t)), 2) for t in taps]

        next_state = np.zeros((n_states, 2), dtype=np.int64)
        outputs = np.zeros((n_states, 2, self.n_outputs), dtype=np.int64)
        for state in range(n_states):
            for bit in (0, 1):
                register = (bit << (k - 1)) | state
                next_state[state, bit] = register >> 1
                for j, g in enumerate(tap_ints):
                    outputs[state, bit, j] = bin(register & g).count("1") % 2

        pred_state = np.zeros((n_states, 2), dtype=np.int64)
        pred_bit = np.zeros((n_states, 2), dtype=np.int64)
        counts = np.zeros(n_states, dtype=np.int64)
        for state in range(n_states):
            for bit in (0, 1):
                ns = next_state[state, bit]
                slot = counts[ns]
                pred_state[ns, slot] = state
                pred_bit[ns, slot] = bit
                counts[ns] += 1
        if not np.all(counts == 2):  # pragma: no cover - structural invariant
            raise InvalidParameterError("malformed trellis: predecessor count != 2")

        # Butterfly layout: states s and s + S/2 share the predecessors
        # (2s, 2s+1), slot 0 on the even one, and every branch into state
        # ns carries the input bit ns >> (K-2).
        half = n_states // 2
        new_states = np.arange(n_states)
        evens = 2 * (new_states % half)
        if not (
            np.array_equal(pred_state, np.stack([evens, evens + 1], axis=1))
            and np.all(pred_bit == (new_states >= half)[:, None])
        ):  # pragma: no cover - structural invariant
            raise InvalidParameterError("malformed trellis: not in butterfly layout")

        # Branch metric signs: +1 for coded bit 0, -1 for coded bit 1, laid
        # out per predecessor slot of each next-state. branch_patterns[q, ns]
        # is slot q's sign pattern as a bit mask (bit j set ⇔ coded bit j
        # is 1), indexing the batched decoder's per-pattern metric table.
        pred_signs = np.zeros((n_states, 2, self.n_outputs))
        branch_patterns = np.zeros((2, n_states), dtype=np.intp)
        for ns in range(n_states):
            for slot in (0, 1):
                s, b = pred_state[ns, slot], pred_bit[ns, slot]
                pred_signs[ns, slot] = 1.0 - 2.0 * outputs[s, b]
                branch_patterns[slot, ns] = sum(
                    int(outputs[s, b, j]) << j for j in range(self.n_outputs)
                )

        # Generator polynomials with bit i holding D^i (tap i delays by i).
        polynomials = tuple(sum(int(b) << i for i, b in enumerate(t)) for t in taps)

        self._tables.update(
            {
                "polynomials": polynomials,
                "next_state": next_state,
                "outputs": outputs,
                "pred_state": pred_state,
                "pred_bit": pred_bit,
                "pred_signs": pred_signs,
                "branch_patterns": branch_patterns,
                # Slot 1's branches complement slot 0's (so they are -bm)
                # when every generator taps the oldest register bit.
                "slot1_negated": np.array_equal(
                    branch_patterns[1], branch_patterns[0] ^ ((1 << self.n_outputs) - 1)
                ),
                "bezout": _bezout_inverse(polynomials),
                "d_free": _free_distance(next_state, outputs),
            },
        )
        return self._tables

    def decode(self, llrs, n_info_bits: int) -> np.ndarray:
        """Maximum-likelihood (Viterbi) decoding from soft LLRs.

        Parameters
        ----------
        llrs:
            One LLR per coded bit (``LLR > 0`` favours bit 0), length
            ``n_coded_bits(n_info_bits)``.
        n_info_bits:
            Number of information bits in the block.

        Returns
        -------
        The ML information-bit sequence (zero termination stripped).
        """
        llr_arr = np.asarray(llrs, dtype=float)
        expected = self.n_coded_bits(n_info_bits)
        if llr_arr.shape != (expected,):
            raise InvalidParameterError(
                f"expected {expected} LLRs for {n_info_bits} info bits, "
                f"got shape {llr_arr.shape}"
            )
        tables = self._trellis()
        pred_state = tables["pred_state"]
        pred_signs = tables["pred_signs"]
        pred_bit = tables["pred_bit"]
        n_states = self.n_states
        n_steps = n_info_bits + self.constraint_length - 1
        llr_steps = llr_arr.reshape(n_steps, self.n_outputs)

        metrics = np.full(n_states, -np.inf)
        metrics[0] = 0.0
        backptr = np.zeros((n_steps, n_states), dtype=np.int8)
        for t in range(n_steps):
            # Candidate metric for each (next_state, predecessor slot).
            branch = _branch_metrics(pred_signs, llr_steps[t])  # (n_states, 2)
            cand = metrics[pred_state] + branch
            choice = np.argmax(cand, axis=1)
            metrics = cand[np.arange(n_states), choice]
            backptr[t] = choice.astype(np.int8)

        # Zero-terminated: trace back from state 0.
        state = 0
        decoded = np.zeros(n_steps, dtype=np.uint8)
        for t in range(n_steps - 1, -1, -1):
            slot = backptr[t, state]
            decoded[t] = pred_bit[state, slot]
            state = pred_state[state, slot]
        return decoded[:n_info_bits]

    def decode_rows(self, llr_rows, n_info_bits: int) -> np.ndarray:
        """Viterbi-decode a batch of frames in one trellis pass.

        ``llr_rows`` has shape ``(R, n_coded_bits(n_info_bits))``; the
        result is the ``(R, n_info_bits)`` batch of ML information-bit
        sequences. Rows with a certified hard-decision codeword return it
        directly and the rest run the butterfly ACS (module docstring), so
        row ``r`` equals ``decode(llr_rows[r], n_info_bits)`` bit for bit.
        """
        llr_arr = np.asarray(llr_rows, dtype=float)
        expected = self.n_coded_bits(n_info_bits)
        if llr_arr.ndim != 2 or llr_arr.shape[1] != expected:
            raise InvalidParameterError(
                f"expected (rows, {expected}) LLRs for {n_info_bits} info "
                f"bits, got shape {llr_arr.shape}"
            )
        decoded, certified = self._certified_codewords(llr_arr, n_info_bits)
        rest = np.flatnonzero(~certified)
        if rest.size:
            decoded[rest] = self._butterfly_viterbi(llr_arr, rest, n_info_bits)
        return decoded

    def _certified_codewords(self, llr_arr: np.ndarray, n_info_bits: int) -> tuple:
        """Rows whose hard decisions are a codeword Viterbi provably returns.

        Returns ``(info, certified)``: for each row with ``certified[r]``,
        ``info[r]`` is the information word of its hard decisions, which
        is the decoder's output by the certificate in the module docstring.
        """
        tables = self._trellis()
        n_rows = llr_arr.shape[0]
        info = np.zeros((n_rows, n_info_bits), dtype=np.uint8)
        if tables["bezout"] is None:
            return info, np.zeros(n_rows, dtype=bool)
        n_steps = n_info_bits + self.constraint_length - 1
        hard = (llr_arr < 0).view(np.uint8)
        streams = hard.reshape(n_rows, n_steps, self.n_outputs)
        # u = Σ_j a_j·c_j: shift-XORs, truncated to the information bits.
        for j, a in enumerate(tables["bezout"]):
            span = n_steps + max(a.bit_length() - 1, 0)
            info ^= _shift_xor_rows(streams[:, :, j], a, span)[:, :n_info_bits]
        certified = np.all(self._encode_rows(info) == hard, axis=1)

        d_free = tables["d_free"]
        magnitudes = np.abs(llr_arr)
        smallest = np.partition(magnitudes, d_free - 1, axis=1)[:, :d_free]
        total = magnitudes.sum(axis=1)
        k = n_steps + self.n_outputs
        gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
        certified &= smallest.min(axis=1) >= np.finfo(float).tiny
        certified &= total <= _SUM_LIMIT
        certified &= smallest.sum(axis=1) > 4.0 * gamma * total
        return info, certified

    def _butterfly_viterbi(
        self, llr_arr: np.ndarray, rows: np.ndarray, n_info_bits: int
    ) -> np.ndarray:
        """Butterfly add-compare-select and traceback over ``llr_arr[rows]``."""
        tables = self._trellis()
        n_rows = rows.size
        n_states = self.n_states
        half = n_states // 2
        n_steps = n_info_bits + self.constraint_length - 1
        # State-major layout: every array below is (..., R) with the rows
        # innermost, so each NumPy op runs long contiguous inner loops.
        # planes[j] holds coded output j's LLRs as a (T, R) plane.
        planes = np.ascontiguousarray(
            llr_arr.reshape(-1, n_steps, self.n_outputs).T[:, :, rows]
        )
        # argmax keeps the first NaN; a NaN needs an infinite metric, which
        # only an infinite LLR or an overflowing sum can produce.
        nan_rule = not np.abs(planes).sum() <= _SUM_LIMIT

        # One metric buffer, updated in place: the adds read both
        # predecessor views into `cand` before the select overwrites them.
        # maximum() returns the value argmax would pick: the larger one,
        # either of two equal ones, or NaN if either is NaN.
        metrics = np.full((n_states, n_rows), -np.inf)
        metrics[0] = 0.0
        evens, odds = metrics[0::2], metrics[1::2]
        selected = metrics.reshape(2, half, n_rows)
        cand = np.empty((2, 2, half, n_rows))  # [slot, half, butterfly, row]
        cand0, cand1 = cand
        backptr = np.empty((n_steps, 2, half, n_rows), dtype=bool)
        slot0, slot1 = tables["branch_patterns"]
        odd_op = np.subtract if tables["slot1_negated"] else np.add
        block = max(1, _BLOCK_ELEMENTS // max(1, 2 * n_states * n_rows))
        for start in range(0, n_steps, block):
            # A block of steps' branch metrics in butterfly order, (b, 2, S/2, R).
            steps = slice(start, start + block)
            patterns = _pattern_metrics(planes[:, steps])
            branch0 = np.take(patterns, slot0, axis=1).reshape(-1, 2, half, n_rows)
            branch1 = branch0
            if not tables["slot1_negated"]:
                branch1 = np.take(patterns, slot1, axis=1).reshape(-1, 2, half, n_rows)
            for b0, b1, choice in zip(branch0, branch1, backptr[steps]):
                np.add(evens, b0, out=cand0)
                odd_op(odds, b1, out=cand1)
                np.greater(cand1, cand0, out=choice)
                if nan_rule:
                    choice |= np.isnan(cand1) & ~np.isnan(cand0)
                np.maximum(cand0, cand1, out=selected)

        # Zero-terminated: trace every row back from state 0, as flat
        # indices ns·R + r into each step's (S, R) decisions. The state
        # entered at step t carries that step's input bit on top, i.e. the
        # bit is 1 exactly when ns >= S/2.
        decisions = backptr.reshape(n_steps, n_states * n_rows)
        shifted = (np.arange(n_states) << 1) & (n_states - 1)
        even_pred = (shifted[:, None] * n_rows + np.arange(n_rows)).ravel()
        index = np.arange(n_rows)
        bits = np.empty((n_steps, n_rows), dtype=bool)
        for t in range(n_steps - 1, -1, -1):
            np.greater_equal(index, half * n_rows, out=bits[t])
            index = even_pred[index] + n_rows * decisions[t][index]
        return bits[:n_info_bits].T.view(np.uint8)

    def decode_hard(self, coded_bits, n_info_bits: int) -> np.ndarray:
        """Hard-decision decoding: bits mapped to ±1 pseudo-LLRs."""
        arr = as_bits(coded_bits).astype(float)
        return self.decode(1.0 - 2.0 * arr, n_info_bits)


#: The NASA-standard rate-1/2, K=7 code used by the production simulator.
NASA_CODE = ConvolutionalCode(generators=(0o133, 0o171), constraint_length=7)

#: A small rate-1/2, K=3 code for fast unit tests.
TEST_CODE = ConvolutionalCode(generators=(0o5, 0o7), constraint_length=3)
