"""Cross-validation of the batched analytic kernel against the LP path.

The kernel must agree with ``optimal_sum_rate`` (scipy HiGHS) on every
protocol over random channels — it solves the *same* optimization by
equalization-support enumeration — and must be invariant to batch size at
the bit level, which is what makes the executors interchangeable. Its
closed-form equalization solves are checked against Cramer's rule and the
bordered determinant, and its values against HiGHS on degenerate channels.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.campaign.kernel import (
    _CELLS_PER_PASS,
    _CELLS_PER_SLAB,
    _directional_mi_table,
    _equalization_values,
    _objective_functions,
    _ones_cofactors,
    _support_candidates,
    batched_sum_rates,
    mi_value_table,
)
from repro.channels.gains import LinkGains
from repro.channels.power import NodePowers
from repro.core.capacity import optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.core.terms import MiKey
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def random_batch():
    rng = np.random.default_rng(42)
    n = 60
    return (
        rng.exponential(0.2, n),
        rng.exponential(1.0, n),
        rng.exponential(3.0, n),
        rng.uniform(0.1, 40.0, n),
    )


class TestAgainstLpBackend:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_matches_scipy_on_random_channels(self, protocol, random_batch):
        gab, gar, gbr, power = random_batch
        fast = batched_sum_rates(protocol, gab, gar, gbr, power)
        reference = [
            optimal_sum_rate(
                protocol,
                GaussianChannel(
                    gains=LinkGains(gab[i], gar[i], gbr[i]), power=power[i]
                ),
            ).sum_rate
            for i in range(gab.size)
        ]
        np.testing.assert_allclose(fast, reference, atol=1e-7)

    def test_matches_scipy_on_paper_channels(self, paper_gains):
        for power_db in (0.0, 10.0, 15.0):
            power = 10.0 ** (power_db / 10.0)
            for protocol in Protocol:
                fast = batched_sum_rates(
                    protocol,
                    np.array([paper_gains.gab]),
                    np.array([paper_gains.gar]),
                    np.array([paper_gains.gbr]),
                    np.array([power]),
                )[0]
                reference = optimal_sum_rate(
                    protocol, GaussianChannel(gains=paper_gains, power=power)
                ).sum_rate
                assert fast == pytest.approx(reference, abs=1e-8)

    def test_dt_closed_form(self):
        """DT's optimum is exactly the direct-link capacity."""
        gab = np.array([0.5, 1.0, 4.0])
        ones = np.ones(3)
        values = batched_sum_rates(Protocol.DT, gab, ones, ones, 2.0)
        np.testing.assert_allclose(values, np.log2(1.0 + 2.0 * gab), atol=1e-12)


class TestBatchInvariance:
    def test_batch_of_n_equals_batches_of_one_bitwise(self, random_batch):
        gab, gar, gbr, power = random_batch
        for protocol in Protocol:
            full = batched_sum_rates(protocol, gab, gar, gbr, power)
            singles = [
                batched_sum_rates(
                    protocol,
                    gab[i : i + 1],
                    gar[i : i + 1],
                    gbr[i : i + 1],
                    power[i : i + 1],
                )
                for i in range(gab.size)
            ]
            assert np.array_equal(full, np.concatenate(singles))

    def test_batch_spanning_several_passes_equals_batches_of_one(self):
        rng = np.random.default_rng(7)
        n = 2 * _CELLS_PER_PASS + 17
        gab, gar, gbr = rng.exponential(1.0, (3, n))
        full = batched_sum_rates(Protocol.HBC, gab, gar, gbr, 10.0)
        singles = [
            batched_sum_rates(
                Protocol.HBC, gab[i : i + 1], gar[i : i + 1], gbr[i : i + 1], 10.0
            )[0]
            for i in range(n)
        ]
        assert np.array_equal(full, np.array(singles))

    def test_split_batches_equal_full_batch_bitwise(self, random_batch):
        gab, gar, gbr, power = random_batch
        full = batched_sum_rates(Protocol.HBC, gab, gar, gbr, power)
        first = batched_sum_rates(
            Protocol.HBC, gab[:30], gar[:30], gbr[:30], power[:30]
        )
        second = batched_sum_rates(
            Protocol.HBC, gab[30:], gar[30:], gbr[30:], power[30:]
        )
        assert np.array_equal(full, np.concatenate([first, second]))


class TestSlabs:
    """Batches larger than one slab: same bits, bounded working set."""

    def test_batch_spanning_several_slabs_equals_split_batches(self):
        rng = np.random.default_rng(8)
        n = 2 * _CELLS_PER_SLAB + 300
        gab, gar, gbr = rng.exponential(1.0, (3, n))
        powers = rng.uniform(0.5, 12.0, (n, 3))
        for power in (powers[:, 0], powers):
            full = batched_sum_rates(Protocol.HBC, gab, gar, gbr, power)
            cuts = [0, 1000, _CELLS_PER_SLAB + 1, n - 1, n]
            parts = [
                batched_sum_rates(
                    Protocol.HBC, gab[lo:hi], gar[lo:hi], gbr[lo:hi], power[lo:hi]
                )
                for lo, hi in zip(cuts, cuts[1:])
            ]
            assert np.array_equal(full, np.concatenate(parts))

    def test_peak_memory_stays_at_one_slab(self):
        def peak(n):
            rng = np.random.default_rng(9)
            gab, gar, gbr = rng.exponential(1.0, (3, n))
            power = np.full(n, 10.0)
            tracemalloc.start()
            try:
                batched_sum_rates(Protocol.HBC, gab, gar, gbr, power)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # warm the candidate caches outside the measurement
        one_slab = peak(_CELLS_PER_SLAB)
        assert peak(4 * _CELLS_PER_SLAB) <= 1.1 * one_slab


class TestInterface:
    def test_scalar_power_broadcasts(self, random_batch):
        gab, gar, gbr, _ = random_batch
        scalar = batched_sum_rates(Protocol.MABC, gab, gar, gbr, 10.0)
        array = batched_sum_rates(Protocol.MABC, gab, gar, gbr, np.full(gab.size, 10.0))
        assert np.array_equal(scalar, array)

    def test_empty_batch(self):
        values = batched_sum_rates(
            Protocol.MABC, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)
        )
        assert values.shape == (0,)

    def test_invalid_inputs_rejected(self):
        one = np.ones(1)
        with pytest.raises(InvalidParameterError):
            batched_sum_rates(Protocol.MABC, -one, one, one, one)
        with pytest.raises(InvalidParameterError):
            batched_sum_rates(Protocol.MABC, one, one, one, -one)
        with pytest.raises(InvalidParameterError):
            batched_sum_rates(
                Protocol.MABC, np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), 1.0
            )

    def test_mi_table_matches_gaussian_channel(self, paper_gains):
        channel = GaussianChannel(gains=paper_gains, power=10.0)
        table = mi_value_table(
            np.array([paper_gains.gab]),
            np.array([paper_gains.gar]),
            np.array([paper_gains.gbr]),
            np.array([10.0]),
        )
        for ki, key in enumerate(MiKey):
            assert table[0, ki] == pytest.approx(channel.mi_value(key), abs=1e-12)


def _closed_form_weights(block):
    """``adj(F)·1`` of one ``(k, k)`` block through the kernel's closed form."""
    k = block.shape[0]
    edges = [[block[i, j] - block[0, j] for j in range(k)] for i in range(1, k)]
    return np.array(_ones_cofactors(edges), dtype=float)


def _blocks(k, rng):
    """Random blocks plus near-singular and exactly singular ones."""
    blocks = [rng.uniform(0.0, 5.0, (k, k)) for _ in range(40)]
    for _ in range(20):
        block = rng.uniform(0.0, 5.0, (k, k))
        block[-1] = block[0] + 1e-9 * rng.standard_normal(k)
        blocks.append(block)
        block = rng.uniform(0.0, 5.0, (k, k))
        block[:, -1] = block[:, 0]
        blocks.append(block)
        block = rng.uniform(0.0, 5.0, (k, k))
        block[1] = block[0] + 0.5
        blocks.append(block)
    return blocks


class TestClosedFormSolve:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weights_match_cramers_rule(self, k):
        """``w_i = det(F with column i replaced by ones)``."""
        for block in _blocks(k, np.random.default_rng(k)):
            cramer = []
            for i in range(k):
                replaced = block.copy()
                replaced[:, i] = 1.0
                cramer.append(np.linalg.det(replaced))
            np.testing.assert_allclose(
                _closed_form_weights(block), cramer, rtol=1e-9, atol=1e-9
            )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weight_sum_is_the_bordered_determinant(self, k):
        """``Σw = det[F -1; 1ᵀ 0]``, the quantity ``_DET_FLOOR`` guards."""
        for block in _blocks(k, np.random.default_rng(10 + k)):
            bordered = np.block(
                [[block, -np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]]
            )
            assert _closed_form_weights(block).sum() == pytest.approx(
                np.linalg.det(bordered), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weights_equalize_the_block(self, k):
        """``Δ = w / Σw`` gives every row of ``F`` the same value."""
        rng = np.random.default_rng(20 + k)
        for _ in range(20):
            block = rng.uniform(0.5, 5.0, (k, k))
            weights = _closed_form_weights(block)
            values = block @ (weights / weights.sum())
            np.testing.assert_allclose(values, values[0], rtol=1e-10)

    def test_more_than_four_phases_refused(self):
        with pytest.raises(InvalidParameterError, match="at most 4 phases"):
            _support_candidates(3, 5)
        with pytest.raises(InvalidParameterError, match="at most 4 phases"):
            _equalization_values(np.ones((2, 3, 5)))


#: Degenerate channels: equal gains everywhere, symmetric relay links (so
#: the a->b and b->a functions coincide), and gains spanning 1e-6..1e6.
DEGENERATE_GAINS = (
    (1.0, 1.0, 1.0),
    (1e-6, 1e-6, 1e-6),
    (1e6, 1e6, 1e6),
    (0.5, 2.0, 2.0),
    (3.0, 0.2, 0.2),
    (1e-6, 1e6, 1e6),
    (1e6, 1e-6, 1e-6),
    (1e-6, 1.0, 1e6),
    (1e6, 1e6, 1e-6),
    (1.0, 1e-6, 1e6),
    (1e-3, 1e3, 1.0),
)


def _max_min_highs(functions):
    """HiGHS on ``max_Δ min_f functions[f] · Δ``: ``(value, upper_bound)``.

    ``value`` is HiGHS's optimum. ``upper_bound`` comes from its dual
    weights ``λ``: for every ``λ`` in the simplex and every ``Δ``,
    ``min_f f · Δ <= λᵀFΔ <= max_l (λᵀF)_l``, so it bounds the optimum
    from above however HiGHS rounded.
    """
    n_functions, n_phases = functions.shape
    # Variables (Δ_1..Δ_L, t): maximize t s.t. t <= f · Δ, sum Δ = 1.
    result = linprog(
        np.r_[np.zeros(n_phases), -1.0],
        A_ub=np.c_[-functions, np.ones(n_functions)],
        b_ub=np.zeros(n_functions),
        A_eq=np.r_[np.ones(n_phases), 0.0][None, :],
        b_eq=np.ones(1),
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    weights = np.maximum(-result.ineqlin.marginals, 0.0)
    return -result.fun, (weights / weights.sum() @ functions).max()


def _assert_matches_highs(fast, reference, functions):
    """Within 1e-7 of HiGHS, and never above the optimum by 1e-12.

    ``reference`` is HiGHS's optimum; the one-sided check uses the dual
    bound of the same max-min ``functions`` (see :func:`_max_min_highs`).
    """
    np.testing.assert_allclose(fast, reference, rtol=0.0, atol=1e-7)
    upper = np.array([_max_min_highs(cell)[1] for cell in functions])
    assert np.all(fast <= upper + 1e-12)


class TestDegenerateChannelsAgainstHighs:
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("power", [0.1, 10.0])
    def test_scalar_power(self, protocol, power):
        gab, gar, gbr = (np.array(column) for column in zip(*DEGENERATE_GAINS))
        fast = batched_sum_rates(protocol, gab, gar, gbr, power)
        reference = [
            optimal_sum_rate(
                protocol, GaussianChannel(gains=LinkGains(*gains), power=power)
            ).sum_rate
            for gains in DEGENERATE_GAINS
        ]
        functions = _objective_functions(protocol, mi_value_table(gab, gar, gbr, power))
        _assert_matches_highs(fast, reference, functions)

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize(
        "node_powers", [(10.0, 10.0, 0.1), (0.1, 10.0, 10.0), (1e-3, 1e3, 1.0)]
    )
    def test_per_node_powers(self, protocol, node_powers):
        gab, gar, gbr = (np.array(column) for column in zip(*DEGENERATE_GAINS))
        columns = np.tile(node_powers, (len(DEGENERATE_GAINS), 1))
        fast = batched_sum_rates(protocol, gab, gar, gbr, columns)
        powers = NodePowers(*node_powers)
        reference = [
            optimal_sum_rate(
                protocol, GaussianChannel(gains=LinkGains(*gains), power=powers)
            ).sum_rate
            for gains in DEGENERATE_GAINS
        ]
        mi = _directional_mi_table(gab, gar, gbr, *columns.T)
        functions = _objective_functions(protocol, mi, directional=True)
        _assert_matches_highs(fast, reference, functions)

    def test_duplicate_functions_and_phases(self):
        """Repeated function rows and phase columns make blocks singular."""
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 4.0, (30, 3, 4))
        functions = np.concatenate([base, base[:, :2]], axis=1)
        functions[10:20, :, 3] = functions[10:20, :, 1]
        functions[20:, :, :] = functions[20:, :1, :]
        fast = _equalization_values(functions)
        reference = [_max_min_highs(cell)[0] for cell in functions]
        _assert_matches_highs(fast, reference, functions)
