"""Batched analytic solver for the phase-duration sum-rate LP.

Every ensemble/sweep workload in this library reduces to the same tiny
linear program, solved once per (protocol, channel) work unit::

    maximize   Ra + Rb
    over       Ra, Rb >= 0,  Δ in the duration simplex
    subject to the theorem constraints  sum(rates) <= c(Δ)

At fixed durations the optimum is the closed form
``min(cap_Ra + cap_Rb, cap_sum)`` (see
:func:`repro.core.optimize.sum_rate_fixed_durations`), so the LP is
equivalent to maximizing a *minimum of linear functions of Δ* over the
simplex — a max-min problem whose optimum sits at an equalization point of
at most ``L`` active functions. This module solves **many such problems at
once**: for every ensemble member and every candidate support it writes the
equalization solve out in closed form, elementwise along the batch axis; no
per-unit Python LP calls, no scipy round trips, no LAPACK.

Closed-form solve. A support pairs ``k`` functions with ``k`` phases; its
``k × k`` coefficient block ``F`` equalizes when ``F Δ_S = v·1`` with
``1ᵀΔ_S = 1``, i.e. the bordered system ``[F −1; 1ᵀ 0] [Δ_S; v] = [0; 1]``.
Its solution is ``Δ_S = w / Σw`` with ``w = adj(F)·1``, where ``w_i =
det(F with column i replaced by ones)``. Subtracting row 0 from the other
rows (the edge rows ``E``) turns that column into ``e_0``, so ``w_i =
(−1)^i · det(E without column i)``: the generalized cross product of the
``k − 1`` edge rows, written out for ``k = 2, 3, 4``. By the Schur
complement, ``Σw = 1ᵀ adj(F) 1 = det F · 1ᵀF⁻¹1 = det[F −1; 1ᵀ 0]``: the
bordered determinant, which :data:`_DET_FLOOR` guards. Candidate
durations are ``max(w/Σw, 0)``, renormalized. The explicit forms stop at
``k = 4``, so the kernel refuses more than four phases; the five protocols
have at most four.

Correctness does not rest on tolerance thresholds: each candidate is
re-scored on its own ``k`` phases (every other phase has ``Δ = 0``) as the
true min over *all* functions, so it is the value of a feasible point of
the LP — a certified lower bound however badly its solve rounded — and the
enumeration attains the optimum at the optimal support. The kernel is
cross-validated against the HiGHS oracle (:func:`repro.optimize.solve_lp`)
in the test suite.

All operations are elementwise along the batch axis, so evaluating a batch
of ``N`` units produces bit-for-bit the same values as ``N`` batch-of-one
evaluations — the property the campaign executors rely on to make serial,
multiprocessing and vectorized execution interchangeable. It is also what
lets the kernel walk a batch of any size in fixed slices without changing
a bit: it builds the MI table and objective functions one slab of at most
:data:`_CELLS_PER_SLAB` units at a time and solves each slab in passes of
:data:`_CELLS_PER_PASS` units, so its working set stays bounded however
many blocks of a grid the engine merges into one batch.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations

import numpy as np

from ..channels.power import NodePowers
from ..core.bounds import bound_for
from ..core.protocols import Protocol, protocol_phases
from ..core.terms import BoundKind, MiKey, transmitter_for
from ..exceptions import InvalidParameterError

__all__ = ["KERNEL_VERSION", "batched_sum_rates", "mi_value_table"]

#: Bumped whenever the numeric semantics of a campaign result change —
#: this kernel's arithmetic *or* the spec-to-ensemble expansion (the
#: draw-sampling procedure in :func:`repro.channels.fading
#: .sample_gain_ensemble` and :meth:`CampaignSpec.sample_gain_draws`).
#: Part of the campaign cache key, so stale on-disk results are never
#: served across versions.
KERNEL_VERSION = 2

_MI_KEYS = tuple(MiKey)
_MI_INDEX = {key: i for i, key in enumerate(_MI_KEYS)}

#: Bordered determinants ``Σw = det[F −1; 1ᵀ 0]`` smaller than this in
#: magnitude are treated as exactly singular and the candidate skipped (its
#: support is represented by another candidate). Ill-conditioned supports
#: above the floor are solved anyway: every candidate is re-certified from
#: scratch, so a bad solve can only yield a suboptimal feasible point, never
#: an overestimate.
_DET_FLOOR = 1e-30

#: Largest support the closed-form solves cover (the five protocols' max).
_MAX_PHASES = 4

#: Units per equalization pass. Every temporary of a pass is ``(units,
#: candidates)`` or ``(units, functions, candidates)``, so slicing the
#: batch bounds the working set (about 1 MB for HBC at 128 units, against
#: 6 MB for 750 units in one pass) at the same speed. Values do not depend
#: on it: all arithmetic is elementwise along the batch axis.
_CELLS_PER_PASS = 128

#: Units per slab: the MI table and the objective functions are built for
#: at most this many units at a time, and the slab's passes then walk
#: them. One table build covers a whole protocol run of a typical
#: ensemble grid (4 powers × 750 draws = 3000 cells), and the kernel's
#: peak stops growing with the batch: about 2.1 MB for HBC at one slab
#: and 2.2 MB at four, against 8.1 MB for 16384 units in one table.
_CELLS_PER_SLAB = 4096


def _node_power_columns(power):
    """Normalize a power argument to per-node columns, or ``None``.

    Returns ``(pa, pb, pr)`` arrays when ``power`` expresses *asymmetric*
    per-node powers — a :class:`~repro.channels.power.NodePowers`, a
    ``{"a": ..., "b": ..., "r": ...}`` mapping, or an ``(n, 3)`` array in
    ``(a, b, r)`` node order. Scalars and 1-d arrays (one shared power per
    unit — the paper's model) return ``None`` and take the classic path.
    """
    if isinstance(power, Mapping):
        power = NodePowers.from_mapping(power)
    if isinstance(power, NodePowers):
        return (
            np.asarray(power.pa),
            np.asarray(power.pb),
            np.asarray(power.pr),
        )
    arr = np.asarray(power, dtype=float)
    if arr.ndim == 2:
        if arr.shape[1] != 3:
            raise InvalidParameterError(
                f"a per-node power batch must have shape (n, 3) in (a, b, r) "
                f"order, got {arr.shape}"
            )
        return arr[:, 0], arr[:, 1], arr[:, 2]
    return None


def _mac_sum_snr(pa, pb, gar, gbr):
    """Multiple-access sum SNR ``P_a·g_ar + P_b·g_br``.

    Where the two source powers are exactly equal this is computed as the
    classic factored form ``P·(g_ar + g_br)`` elementwise, so uniform
    per-node powers reproduce the scalar-power kernel bit for bit.
    """
    return np.where(pa == pb, pa * (gar + gbr), pa * gar + pb * gbr)


def mi_value_table(gab, gar, gbr, power) -> np.ndarray:
    """Per-unit mutual-information values for all :class:`MiKey` terms.

    Vectorized counterpart of :meth:`GaussianChannel.mi_values`: gains and
    power are broadcastable arrays of shape ``(n,)`` and the result has
    shape ``(n, len(MiKey))`` in ``MiKey`` declaration order.

    ``power`` may also express asymmetric per-node transmit powers — a
    :class:`~repro.channels.power.NodePowers`, a node mapping, or an
    ``(n, 3)`` array in ``(a, b, r)`` order. Each key is then evaluated
    under its *terminal transmitter* convention (``a`` drives ``a-r``,
    ``a-b`` and ``a-rb``; ``b`` drives ``b-r`` and ``b-ra``; the MAC sum
    is ``P_a·g_ar + P_b·g_br``); phase-dependent directions, e.g. the
    relay re-using a link, are handled internally by
    :func:`batched_sum_rates`.
    """
    gab = np.asarray(gab, dtype=float)
    gar = np.asarray(gar, dtype=float)
    gbr = np.asarray(gbr, dtype=float)
    columns = _node_power_columns(power)
    if columns is None:
        power = np.asarray(power, dtype=float)
        snrs = {
            MiKey.LINK_AR: power * gar,
            MiKey.LINK_BR: power * gbr,
            MiKey.LINK_AB: power * gab,
            MiKey.MAC_SUM: power * (gar + gbr),
            MiKey.CUT_A_RB: power * (gar + gab),
            MiKey.CUT_B_RA: power * (gbr + gab),
        }
    else:
        pa, pb, _ = columns
        snrs = {
            MiKey.LINK_AR: pa * gar,
            MiKey.LINK_BR: pb * gbr,
            MiKey.LINK_AB: pa * gab,
            MiKey.MAC_SUM: _mac_sum_snr(pa, pb, gar, gbr),
            MiKey.CUT_A_RB: pa * (gar + gab),
            MiKey.CUT_B_RA: pb * (gbr + gab),
        }
    return np.stack(
        [np.log2(1.0 + snrs[key]) for key in _MI_KEYS],
        axis=-1,
    )


#: The directional MI vocabulary under asymmetric per-node powers: each
#: ``(key, transmitter)`` pair is one distinct SNR expression. Under a
#: scalar power the two directions of a link coincide (reciprocity), which
#: is why the classic table needs only ``len(MiKey)`` columns.
_DIRECTIONAL_TERMS = (
    (MiKey.LINK_AR, "a"),
    (MiKey.LINK_AR, "r"),
    (MiKey.LINK_BR, "b"),
    (MiKey.LINK_BR, "r"),
    (MiKey.LINK_AB, "a"),
    (MiKey.LINK_AB, "b"),
    (MiKey.MAC_SUM, "ab"),
    (MiKey.CUT_A_RB, "a"),
    (MiKey.CUT_B_RA, "b"),
)
_DIRECTIONAL_INDEX = {term: i for i, term in enumerate(_DIRECTIONAL_TERMS)}


def _directional_mi_table(gab, gar, gbr, pa, pb, pr) -> np.ndarray:
    """MI values for every :data:`_DIRECTIONAL_TERMS` entry, shape ``(n, 9)``.

    All expressions reduce elementwise to the classic
    :func:`mi_value_table` columns when ``pa == pb == pr`` (the MAC sum via
    :func:`_mac_sum_snr`), which is what makes uniform per-node powers
    bitwise-identical to the scalar path.
    """
    snrs = {
        (MiKey.LINK_AR, "a"): pa * gar,
        (MiKey.LINK_AR, "r"): pr * gar,
        (MiKey.LINK_BR, "b"): pb * gbr,
        (MiKey.LINK_BR, "r"): pr * gbr,
        (MiKey.LINK_AB, "a"): pa * gab,
        (MiKey.LINK_AB, "b"): pb * gab,
        (MiKey.MAC_SUM, "ab"): _mac_sum_snr(pa, pb, gar, gbr),
        (MiKey.CUT_A_RB, "a"): pa * (gar + gab),
        (MiKey.CUT_B_RA, "b"): pb * (gbr + gab),
    }
    return np.stack(
        [np.log2(1.0 + snrs[term]) for term in _DIRECTIONAL_TERMS],
        axis=-1,
    )


@lru_cache(maxsize=None)
def _bound_structure(protocol: Protocol, kind: BoundKind):
    """Constraint skeleton of a bound, grouped by rate family.

    Returns ``(n_phases, ra_terms, rb_terms, sum_terms)`` where each entry
    of a term group describes one constraint as a tuple of
    ``(phase, mi_index)`` pairs.
    """
    spec = bound_for(protocol, kind)
    groups: dict[tuple, list] = {("Ra",): [], ("Rb",): [], ("Ra", "Rb"): []}
    for constraint in spec.constraints:
        key = tuple(sorted(constraint.rates))
        terms = tuple((p, _MI_INDEX[k]) for p, k in constraint.form.terms)
        groups[key].append(terms)
    return (
        spec.n_phases,
        tuple(groups[("Ra",)]),
        tuple(groups[("Rb",)]),
        tuple(groups[("Ra", "Rb")]),
    )


@lru_cache(maxsize=None)
def _directional_bound_structure(protocol: Protocol, kind: BoundKind):
    """Like :func:`_bound_structure`, with directional MI column indices.

    Each ``(phase, mi_index)`` pair indexes :data:`_DIRECTIONAL_TERMS`
    instead of :class:`MiKey`: the transmitter driving each term is
    resolved from the protocol's phase schedule, so e.g. ``Δ2·I[a-r]`` in
    a relay-broadcast phase draws on the *relay's* power.
    """
    spec = bound_for(protocol, kind)
    phases = protocol_phases(protocol)
    groups: dict[tuple, list] = {("Ra",): [], ("Rb",): [], ("Ra", "Rb"): []}
    for constraint in spec.constraints:
        key = tuple(sorted(constraint.rates))
        terms = tuple(
            (p, _DIRECTIONAL_INDEX[(k, transmitter_for(k, phases[p]))])
            for p, k in constraint.form.terms
        )
        groups[key].append(terms)
    return (
        spec.n_phases,
        tuple(groups[("Ra",)]),
        tuple(groups[("Rb",)]),
        tuple(groups[("Ra", "Rb")]),
    )


def _constraint_rows(term_groups, mi: np.ndarray, n_phases: int) -> np.ndarray:
    """Stack one rate family's constraints as ``(n, n_constraints, L)``."""
    n = mi.shape[0]
    rows = np.zeros((n, len(term_groups), n_phases))
    for m, terms in enumerate(term_groups):
        for phase, mi_index in terms:
            rows[:, m, phase] += mi[:, mi_index]
    return rows


def _objective_functions(
    protocol: Protocol, mi: np.ndarray, *, directional: bool = False
) -> np.ndarray:
    """The linear functions whose min over the simplex is the sum rate.

    The fixed-duration optimum is ``min(min_i a_i·Δ + min_j b_j·Δ,
    min_k s_k·Δ)``; since the pairwise mins distribute, this equals the min
    over the function family ``{a_i + b_j} ∪ {s_k}``. Returns shape
    ``(n, n_functions, L)``. With ``directional=True``, ``mi`` is a
    :func:`_directional_mi_table` and the constraint skeleton indexes it
    through :func:`_directional_bound_structure`.
    """
    structure = _directional_bound_structure if directional else _bound_structure
    n_phases, ra_terms, rb_terms, sum_terms = structure(protocol, BoundKind.INNER)
    ra_rows = _constraint_rows(ra_terms, mi, n_phases)
    rb_rows = _constraint_rows(rb_terms, mi, n_phases)
    sum_rows = _constraint_rows(sum_terms, mi, n_phases)
    n = mi.shape[0]
    paired = ra_rows[:, :, None, :] + rb_rows[:, None, :, :]
    paired = paired.reshape(n, -1, n_phases)
    if sum_rows.shape[1]:
        return np.concatenate([paired, sum_rows], axis=1)
    return paired


@lru_cache(maxsize=None)
def _support_candidates(n_functions: int, n_phases: int):
    """All (function subset, phase subset) pairs of equal size ``k >= 2``.

    The equalization solves are written out for ``k <= 4`` only (see
    :func:`_ones_cofactors`), so more than four phases are refused.
    """
    if n_phases > _MAX_PHASES:
        raise InvalidParameterError(
            f"the analytic kernel solves at most {_MAX_PHASES} phases, got {n_phases}"
        )
    candidates = []
    for k in range(2, n_phases + 1):
        if k > n_functions:
            break
        phase_sets = np.array(list(combinations(range(n_phases), k)), dtype=np.intp)
        function_sets = np.array(
            list(combinations(range(n_functions), k)), dtype=np.intp
        )
        n_pairs = len(phase_sets) * len(function_sets)
        phases = np.repeat(phase_sets, len(function_sets), axis=0)
        functions = np.tile(function_sets, (len(phase_sets), 1))
        assert phases.shape == functions.shape == (n_pairs, k)
        candidates.append((k, phases, functions))
    return tuple(candidates)


def _ones_cofactors(edges):
    """``adj(F)·1`` of a ``k × k`` support block, from its edge rows.

    ``edges`` holds rows ``1..k-1`` of ``E`` — the block ``F`` with row 0
    subtracted — as ``k-1`` lists of ``k`` arrays. Entry ``i`` of the
    result is ``(-1)^i · det(E without column i)``, which equals
    ``det(F with column i replaced by ones)``: the generalized cross
    product of the edge rows, written out for ``k = 2, 3, 4``.
    """
    if len(edges) == 1:
        ((e0, e1),) = edges
        return [e1, -e0]
    if len(edges) == 2:
        (a0, a1, a2), (b0, b1, b2) = edges
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = edges
    # The six 2x2 minors of the last two edge rows, shared by all four
    # 3x3 determinants (Laplace expansion along the first edge row).
    m01 = b0 * c1 - b1 * c0
    m02 = b0 * c2 - b2 * c0
    m03 = b0 * c3 - b3 * c0
    m12 = b1 * c2 - b2 * c1
    m13 = b1 * c3 - b3 * c1
    m23 = b2 * c3 - b3 * c2
    return [
        a1 * m23 - a2 * m13 + a3 * m12,
        a2 * m03 - a0 * m23 - a3 * m02,
        a0 * m13 - a1 * m03 + a3 * m01,
        a1 * m02 - a0 * m12 - a2 * m01,
    ]


def _support_durations(functions, phase_sets, function_sets):
    """Equalizing durations of every candidate support, in closed form.

    Returns ``(durations, usable)``: ``k`` arrays of shape ``(n, n_cand)``
    holding ``Δ`` on the candidates' phases, normalized to the simplex,
    and the mask of candidates that are not singular. A function of its
    own so that the block, edge and cofactor temporaries are freed before
    the re-score allocates its ``(n, F, n_cand)`` terms (peak memory).
    """
    k = phase_sets.shape[1]

    def entry(i, j):
        """Support block entry F[i][j] = functions[:, f_i, l_j], (n, n_cand)."""
        return functions[:, function_sets[:, i], phase_sets[:, j]]

    first = [entry(0, j) for j in range(k)]
    edges = [[entry(i, j) - first[j] for j in range(k)] for i in range(1, k)]
    weights = _ones_cofactors(edges)
    # Σw is the bordered determinant det[F -1; 1ᵀ 0] (see _DET_FLOOR).
    total = sum(weights)
    singular = ~(np.abs(total) > _DET_FLOOR)
    safe_total = np.where(singular, 1.0, total)
    durations = [np.maximum(weight / safe_total, 0.0) for weight in weights]
    mass = sum(durations)
    usable = (mass > 0.0) & ~singular
    safe_mass = np.where(usable, mass, 1.0)
    return [duration / safe_mass for duration in durations], usable


def _equalization_values(functions: np.ndarray) -> np.ndarray:
    """Best certified value over all equalization supports, per unit.

    ``functions`` has shape ``(n, F, L)``; the result has shape ``(n,)`` and
    equals ``max_{Δ in simplex} min_f functions[n, f] · Δ`` exactly (up to
    floating-point rounding of the candidate systems). The batch is
    evaluated :data:`_CELLS_PER_PASS` units at a time.
    """
    return np.concatenate(
        [
            _equalization_pass(functions[start : start + _CELLS_PER_PASS])
            for start in range(0, functions.shape[0], _CELLS_PER_PASS)
        ]
    )


def _equalization_pass(functions: np.ndarray) -> np.ndarray:
    """:func:`_equalization_values` for one slice of the batch."""
    _, n_functions, n_phases = functions.shape
    # k = 1 candidates are the simplex corners: value = min_f F[n, f, l].
    corner_values = functions.min(axis=1)
    best = corner_values.max(axis=1)
    for k, phase_sets, function_sets in _support_candidates(n_functions, n_phases):
        durations, usable = _support_durations(functions, phase_sets, function_sets)
        # Certify each candidate by re-scoring it as the min over *all*
        # functions on its own k phases (the other phases get Δ = 0), so
        # a bad solve can only lose, never overestimate.
        achieved = sum(
            functions[:, :, phase_sets[:, j]] * durations[j][:, None, :]
            for j in range(k)
        )
        achieved = np.where(usable, achieved.min(axis=1), -np.inf)
        best = np.maximum(best, achieved.max(axis=1))
    return best


def batched_sum_rates(protocol: Protocol, gab, gar, gbr, power) -> np.ndarray:
    """LP-optimal achievable sum rates for a batch of channel instances.

    Parameters
    ----------
    protocol:
        The protocol whose inner bound is optimized.
    gab, gar, gbr:
        Linear link gains, arrays of shape ``(n,)`` (scalars broadcast).
    power:
        Transmit power (linear). A scalar or shape-``(n,)`` array applies
        one shared power to every node (the paper's model); a
        :class:`~repro.channels.power.NodePowers`, a
        ``{"a": ..., "b": ..., "r": ...}`` mapping, or an ``(n, 3)``
        array in ``(a, b, r)`` order gives each node its own power. Equal
        per-node powers reproduce the shared-power results bit for bit.

    Returns
    -------
    np.ndarray
        Shape ``(n,)``; entry ``i`` equals
        ``optimal_sum_rate(protocol, GaussianChannel(gains_i, power_i))``
        up to LP tolerance, computed without any per-unit solver calls.
        The batch is evaluated :data:`_CELLS_PER_SLAB` units at a time.
    """
    columns = _node_power_columns(power)
    powers = (power,) if columns is None else columns
    gab, gar, gbr, *powers = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (gab, gar, gbr, *powers))
    )
    if gab.ndim != 1:
        raise InvalidParameterError(
            f"expected 1-d gain/power arrays, got shape {gab.shape}"
        )
    if np.any(gab <= 0) or np.any(gar <= 0) or np.any(gbr <= 0):
        raise InvalidParameterError("link gains must be strictly positive")
    if any(np.any(p < 0) for p in powers):
        raise InvalidParameterError("power must be non-negative")
    values = np.empty(gab.size)
    for start in range(0, gab.size, _CELLS_PER_SLAB):
        cells = slice(start, start + _CELLS_PER_SLAB)
        values[cells] = _slab_values(
            protocol, [x[cells] for x in (gab, gar, gbr, *powers)]
        )
    return values


def _slab_values(protocol: Protocol, columns) -> np.ndarray:
    """:func:`batched_sum_rates` for one slab of validated unit columns.

    ``columns`` is ``[gab, gar, gbr, power]`` for a shared power or
    ``[gab, gar, gbr, pa, pb, pr]`` for per-node powers. A function of
    its own so that one slab's tables are freed before the next slab
    builds its own (peak memory).
    """
    if len(columns) == 4:
        functions = _objective_functions(protocol, mi_value_table(*columns))
    else:
        functions = _objective_functions(
            protocol, _directional_mi_table(*columns), directional=True
        )
    return _equalization_values(functions)
