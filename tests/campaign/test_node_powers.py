"""Per-node power support through the campaign stack.

The tentpole guarantees of the power-allocation work:

* equal per-node powers evaluate **bitwise identically** to the classic
  scalar path (same kernel cells, same cache entries),
* asymmetric powers flow through the kernel, the ``node_powers_db``
  grid axis, every executor and shard+gather without changing
  ``KERNEL_VERSION`` or any allocation-free spec hash.
"""

import numpy as np
import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.engine import (
    _grid_batches,
    evaluate_ensemble,
    gather_campaign,
    run_campaign,
)
from repro.campaign.kernel import batched_sum_rates, mi_value_table
from repro.campaign.spec import CampaignSpec, FadingSpec, GridAxis
from repro.channels.gains import LinkGains
from repro.channels.power import NodePowers
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError

PAPER_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
ALL_PROTOCOLS = tuple(Protocol)


def _random_gain_columns(n, seed=5):
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(0.05, 4.0, size=n) for _ in range(3))


class TestKernelScalarEquivalence:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_uniform_node_powers_match_scalar_bitwise(self, protocol):
        gab, gar, gbr = _random_gain_columns(40)
        scalar = batched_sum_rates(protocol, gab, gar, gbr, 10.0)
        uniform = batched_sum_rates(protocol, gab, gar, gbr, NodePowers.uniform(10.0))
        assert np.array_equal(scalar, uniform)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_uniform_mapping_matches_scalar_bitwise(self, protocol):
        gab, gar, gbr = _random_gain_columns(17)
        scalar = batched_sum_rates(protocol, gab, gar, gbr, 10.0)
        mapped = batched_sum_rates(
            protocol, gab, gar, gbr, {"a": 10.0, "b": 10.0, "r": 10.0}
        )
        assert np.array_equal(scalar, mapped)

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_uniform_columns_match_scalar_bitwise(self, protocol):
        gab, gar, gbr = _random_gain_columns(23)
        scalar = batched_sum_rates(protocol, gab, gar, gbr, 10.0)
        columns = batched_sum_rates(
            protocol, gab, gar, gbr, np.full((gab.size, 3), 10.0)
        )
        assert np.array_equal(scalar, columns)

    def test_mixed_batch_uniform_rows_match_classic_rows(self):
        """An asymmetric batch's equal-power rows equal the scalar cells."""
        gab, gar, gbr = _random_gain_columns(6)
        powers = np.tile([4.0, 4.0, 4.0], (6, 1))
        powers[1] = [8.0, 2.0, 4.0]
        powers[4] = [1.0, 1.0, 9.0]
        mixed = batched_sum_rates(Protocol.HBC, gab, gar, gbr, powers)
        classic = batched_sum_rates(Protocol.HBC, gab, gar, gbr, 4.0)
        for i in (0, 2, 3, 5):
            assert mixed[i] == classic[i]


class TestKernelAsymmetric:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_batch_matches_per_unit(self, protocol):
        gab, gar, gbr = _random_gain_columns(12)
        rng = np.random.default_rng(11)
        powers = rng.uniform(0.5, 12.0, size=(12, 3))
        batch = batched_sum_rates(protocol, gab, gar, gbr, powers)
        singles = [
            batched_sum_rates(
                protocol,
                gab[i : i + 1],
                gar[i : i + 1],
                gbr[i : i + 1],
                powers[i : i + 1],
            )[0]
            for i in range(12)
        ]
        assert np.array_equal(batch, np.array(singles))

    def test_more_relay_power_helps_relay_protocols(self):
        gab = np.array([0.2])
        gar = np.array([1.0])
        gbr = np.array([3.0])
        starved = batched_sum_rates(
            Protocol.MABC, gab, gar, gbr, np.array([[10.0, 10.0, 0.5]])
        )
        boosted = batched_sum_rates(
            Protocol.MABC, gab, gar, gbr, np.array([[10.0, 10.0, 20.0]])
        )
        assert boosted[0] > starved[0]

    def test_bad_power_shape_rejected(self):
        gab, gar, gbr = _random_gain_columns(4)
        with pytest.raises(InvalidParameterError):
            batched_sum_rates(Protocol.MABC, gab, gar, gbr, np.ones((4, 2)))

    def test_negative_node_power_rejected(self):
        gab, gar, gbr = _random_gain_columns(4)
        powers = np.ones((4, 3))
        powers[2, 1] = -1.0
        with pytest.raises(InvalidParameterError):
            batched_sum_rates(Protocol.MABC, gab, gar, gbr, powers)

    def test_mi_value_table_accepts_node_powers(self):
        gab, gar, gbr = _random_gain_columns(5)
        table = mi_value_table(gab, gar, gbr, NodePowers(pa=2.0, pb=6.0, pr=1.0))
        scalar = mi_value_table(gab, gar, gbr, 2.0)
        assert table.shape == scalar.shape
        uniform = mi_value_table(gab, gar, gbr, NodePowers.uniform(2.0))
        assert np.array_equal(uniform, scalar)


def allocation_spec():
    """A (protocols x powers x allocation x gains x draws) grid."""
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        powers_db=(6.0, 12.0),
        gains=(PAPER_GAINS, LinkGains.from_db(-4.0, 2.0, 2.0)),
        fading=FadingSpec(n_draws=6, seed=21),
        extra_axes=(
            GridAxis(
                name="power_allocation",
                values=(
                    {"node_powers_db": (0.0, 0.0, 0.0)},
                    {"node_powers_db": (-3.0, -3.0, 3.0)},
                    {"node_powers_db": (2.0, -4.0, 0.0)},
                ),
            ),
        ),
    )


class TestSpecAxis:
    def test_allocation_axis_serializes_only_when_set(self):
        classic = CampaignSpec(
            protocols=(Protocol.MABC,),
            powers_db=(10.0,),
            gains=(PAPER_GAINS,),
        )
        assert "axes" not in classic.to_dict()
        assert "axes" in allocation_spec().to_dict()

    def test_block_params_accumulate_node_offsets(self):
        spec = allocation_spec()
        # block axes: (protocol, power, allocation); pick the
        # (-3, -3, +3) allocation at base power 6 dB.
        block = np.ravel_multi_index((0, 0, 1), spec.block_shape)
        _, power, _ = spec.block_params(block)
        assert isinstance(power, NodePowers)
        assert power.to_db() == pytest.approx((3.0, 3.0, 9.0))

    def test_zero_offset_cell_is_classic_scalar_power(self):
        spec = allocation_spec()
        block = np.ravel_multi_index((0, 0, 0), spec.block_shape)
        _, power, _ = spec.block_params(block)
        assert isinstance(power, NodePowers)
        assert power.is_uniform()

    def test_malformed_node_offsets_rejected(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(PAPER_GAINS,),
                extra_axes=(
                    GridAxis(
                        name="power_allocation",
                        values=({"node_powers_db": (0.0, 1.0)},),
                    ),
                ),
            )

    def test_operational_link_rejects_allocation_axes(self):
        from repro.campaign.spec import LinkSimSpec

        with pytest.raises(InvalidParameterError, match="analytic"):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(PAPER_GAINS,),
                link=LinkSimSpec(n_rounds=4, payload_bits=32, seed=1),
                extra_axes=(
                    GridAxis(
                        name="power_allocation",
                        values=({"node_powers_db": (0.0, 0.0, 0.0)},),
                    ),
                ),
            )


class TestExecutorsAndSharding:
    @pytest.fixture(scope="class")
    def spec(self):
        return allocation_spec()

    @pytest.fixture(scope="class")
    def serial_values(self, spec):
        return run_campaign(spec, executor="serial", cache=False).values

    @pytest.mark.parametrize("executor", ["vectorized", "async"])
    def test_executors_agree_bitwise_on_allocation_grid(
        self, spec, serial_values, executor
    ):
        values = run_campaign(spec, executor=executor, cache=False).values
        assert np.array_equal(values, serial_values)

    def test_shard_gather_matches_unsharded_bitwise(
        self, spec, serial_values, tmp_path
    ):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            run_campaign(
                spec,
                executor="vectorized",
                cache=cache,
                shard=spec.shard(index, 3),
            )
        gathered = gather_campaign(spec, cache)
        assert np.array_equal(gathered.values, serial_values)

    def test_uniform_allocation_axis_reproduces_scalar_grid(self):
        """A uniform dB offset equals the same shift of the power axis."""
        base = CampaignSpec(
            protocols=(Protocol.MABC, Protocol.HBC),
            powers_db=(8.0,),
            gains=(PAPER_GAINS,),
            fading=FadingSpec(n_draws=5, seed=13),
        )
        shifted = CampaignSpec(
            protocols=base.protocols,
            powers_db=(6.0,),
            gains=base.gains,
            fading=base.fading,
            extra_axes=(
                GridAxis(
                    name="power_allocation",
                    values=({"node_powers_db": (2.0, 2.0, 2.0)},),
                ),
            ),
        )
        assert shifted.spec_hash() != base.spec_hash()
        base_values = run_campaign(base, executor="vectorized", cache=False)
        shifted_values = run_campaign(shifted, executor="vectorized", cache=False)
        assert np.array_equal(
            shifted_values.values.reshape(-1), base_values.values.reshape(-1)
        )


def mixed_layout_spec():
    """TDBC blocks alternating per-node and shared power layouts."""
    return CampaignSpec(
        protocols=(Protocol.TDBC,),
        powers_db=(0.0, 10.0),
        gains=(PAPER_GAINS,),
        fading=FadingSpec(n_draws=5, seed=17),
        extra_axes=(
            GridAxis(
                name="alloc",
                values=(
                    {"node_powers_db": (0.0, 0.0, 3.0)},
                    {"power_db_offset": 0.0},
                ),
            ),
        ),
    )


class TestMixedPowerLayouts:
    """A protocol run whose blocks alternate ``(n, 3)`` and ``(n,)`` powers."""

    @pytest.fixture(scope="class")
    def spec(self):
        return mixed_layout_spec()

    @pytest.fixture(scope="class")
    def serial_values(self, spec):
        return run_campaign(spec, executor="serial").values

    def test_batches_split_where_the_power_layout_changes(self, spec):
        flat_gains = spec.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(spec, flat_gains, 0, spec.n_units)
        assert [b.power.ndim for b in batches] == [2, 1, 2, 1]
        assert [len(b) for b in batches] == [spec.n_channels] * 4

    def test_one_pass_matches_serial_bitwise(self, spec, serial_values):
        values = run_campaign(spec, executor="vectorized").values
        assert values.tobytes() == serial_values.tobytes()

    def test_chunks_splitting_blocks_match_serial_bitwise(self, spec, serial_values):
        chunk_size = spec.n_channels + 2
        result = run_campaign(spec, executor="vectorized", chunk_size=chunk_size)
        assert result.values.tobytes() == serial_values.tobytes()


class TestEnsembleWidening:
    def test_node_powers_match_scalar_bitwise(self, rng):
        draws = rng.uniform(0.05, 3.0, size=(20, 3))
        scalar = evaluate_ensemble(Protocol.TDBC, draws, 10.0)
        uniform = evaluate_ensemble(Protocol.TDBC, draws, NodePowers.uniform(10.0))
        mapped = evaluate_ensemble(
            Protocol.TDBC, draws, {"a": 10.0, "b": 10.0, "r": 10.0}
        )
        assert np.array_equal(scalar, uniform)
        assert np.array_equal(scalar, mapped)

    def test_per_draw_power_columns(self, rng):
        draws = rng.uniform(0.05, 3.0, size=(8, 3))
        powers = rng.uniform(0.5, 10.0, size=(8, 3))
        values = evaluate_ensemble(Protocol.HBC, draws, powers)
        singles = [
            evaluate_ensemble(Protocol.HBC, draws[i : i + 1], powers[i : i + 1])[0]
            for i in range(8)
        ]
        assert np.array_equal(values, np.array(singles))

    def test_bad_power_matrix_shape_rejected(self, rng):
        draws = rng.uniform(0.05, 3.0, size=(8, 3))
        with pytest.raises(InvalidParameterError):
            evaluate_ensemble(Protocol.HBC, draws, np.ones((8, 2)))
