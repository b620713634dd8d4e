"""Unit tests for campaign specifications, sharding and grid expansion."""

import numpy as np
import pytest

from repro.campaign.engine import _grid_batches
from repro.campaign.spec import (
    CampaignShard,
    CampaignSpec,
    FadingSpec,
    GridAxis,
    chunk_ranges,
)
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError


@pytest.fixture
def small_spec(paper_gains):
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(paper_gains,),
        fading=FadingSpec(n_draws=5, seed=3),
    )


class TestValidation:
    def test_empty_protocols_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(protocols=(), powers_db=(10.0,), gains=(paper_gains,))

    def test_duplicate_protocols_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC, Protocol.MABC),
                powers_db=(10.0,),
                gains=(paper_gains,),
            )

    def test_empty_powers_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(protocols=(Protocol.MABC,), powers_db=(), gains=(paper_gains,))

    @pytest.mark.parametrize("power_db", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_powers_rejected(self, paper_gains, power_db):
        with pytest.raises(InvalidParameterError, match="finite"):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0, power_db),
                gains=(paper_gains,),
            )

    @pytest.mark.parametrize(
        "override",
        [
            {"power_db_offset": float("nan")},
            {"power_db_offset": float("inf")},
            {"gain_offsets_db": (0.0, float("nan"), 0.0)},
            {"node_powers_db": (0.0, 0.0, float("inf"))},
        ],
        ids=["nan-offset", "inf-offset", "nan-gain-offset", "inf-node-power"],
    )
    def test_non_finite_axis_overrides_rejected(self, paper_gains, override):
        axis = GridAxis(name="variant", values=({"power_db_offset": 0.0}, override))
        with pytest.raises(InvalidParameterError, match="finite"):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=(axis,),
            )

    def test_empty_gains_rejected(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(protocols=(Protocol.MABC,), powers_db=(10.0,), gains=())

    def test_non_gains_rejected(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=((1.0, 2.0, 3.0),),
            )

    def test_bad_fading_rejected(self):
        with pytest.raises(InvalidParameterError):
            FadingSpec(n_draws=0)
        with pytest.raises(InvalidParameterError):
            FadingSpec(n_draws=5, k_factor=-1.0)
        for k_factor in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                FadingSpec(n_draws=5, k_factor=k_factor)


class TestExpansion:
    def test_grid_shape_and_unit_count(self, small_spec):
        assert small_spec.grid_shape == (2, 2, 1, 5)
        assert small_spec.n_units == 20

    def test_grid_batches_cover_every_unit_in_order(self, small_spec):
        flat_gains = small_spec.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(small_spec, flat_gains, 0, small_spec.n_units)
        # One batch per protocol run: 2 powers x 5 draws, in C order.
        assert [len(b) for b in batches] == [10, 10]
        assert [b.protocol for b in batches] == [Protocol.MABC, Protocol.HBC]
        # First block is MABC at 0 dB (power 1.0 linear), then 10 dB.
        assert np.all(batches[0].power[:5] == pytest.approx(1.0))
        assert np.all(batches[0].power[5:] == pytest.approx(10.0))

    def test_draws_paired_across_protocols_and_powers(self, small_spec):
        flat_gains = small_spec.sample_gain_draws().reshape(-1, 3)
        batches = _grid_batches(small_spec, flat_gains, 0, small_spec.n_units)
        first = batches[0].slice(0, 5)
        for batch in batches:
            for block in (batch.slice(0, 5), batch.slice(5, 10)):
                for link in ("gab", "gar", "gbr"):
                    assert np.array_equal(getattr(block, link), getattr(first, link))

    def test_no_fading_means_single_draw_of_means(self, paper_gains):
        spec = CampaignSpec(
            protocols=(Protocol.DT,), powers_db=(10.0,), gains=(paper_gains,)
        )
        draws = spec.sample_gain_draws()
        assert draws.shape == (1, 1, 3)
        assert tuple(draws[0, 0]) == (
            paper_gains.gab,
            paper_gains.gar,
            paper_gains.gbr,
        )

    def test_sampling_is_deterministic(self, small_spec):
        assert np.array_equal(
            small_spec.sample_gain_draws(), small_spec.sample_gain_draws()
        )

    def test_from_placements(self):
        spec = CampaignSpec.from_placements(
            (Protocol.MABC,), (10.0,), 7, fading=FadingSpec(n_draws=2)
        )
        assert len(spec.gains) == 7
        assert spec.grid_shape == (1, 1, 7, 2)
        with pytest.raises(InvalidParameterError):
            CampaignSpec.from_placements((Protocol.MABC,), (10.0,), 0)


class TestHashing:
    def test_hash_is_stable(self, small_spec, paper_gains):
        clone = CampaignSpec(
            protocols=(Protocol.MABC, Protocol.HBC),
            powers_db=(0.0, 10.0),
            gains=(paper_gains,),
            fading=FadingSpec(n_draws=5, seed=3),
        )
        assert small_spec.spec_hash() == clone.spec_hash()

    @pytest.mark.parametrize(
        "change",
        [
            {"protocols": (Protocol.MABC, Protocol.TDBC)},
            {"powers_db": (0.0, 11.0)},
            {"fading": FadingSpec(n_draws=6, seed=3)},
            {"fading": FadingSpec(n_draws=5, seed=4)},
            {"fading": FadingSpec(n_draws=5, seed=3, k_factor=1.0)},
            {"fading": None},
        ],
    )
    def test_any_field_change_changes_the_hash(self, small_spec, paper_gains, change):
        fields = {
            "protocols": small_spec.protocols,
            "powers_db": small_spec.powers_db,
            "gains": small_spec.gains,
            "fading": small_spec.fading,
        }
        fields.update(change)
        assert CampaignSpec(**fields).spec_hash() != small_spec.spec_hash()

    def test_dict_round_trip(self, small_spec):
        clone = CampaignSpec.from_dict(small_spec.to_dict())
        assert clone == small_spec
        assert clone.spec_hash() == small_spec.spec_hash()


class TestSharding:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 20])
    def test_partition_is_balanced_and_covers_the_grid(self, small_spec, count):
        shards = [small_spec.shard(i, count) for i in range(count)]
        ranges = [shard.unit_range for shard in shards]
        # Contiguous, in order, disjoint, covering [0, n_units) exactly.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == small_spec.n_units
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [shard.n_units for shard in shards]
        assert sum(sizes) == small_spec.n_units
        assert max(sizes) - min(sizes) <= 1

    def test_oversubscribed_partition_has_empty_tail_shards(self, small_spec):
        shards = [small_spec.shard(i, 30) for i in range(30)]
        assert sum(shard.n_units for shard in shards) == small_spec.n_units
        assert shards[-1].n_units == 0

    def test_parent_hash_is_preserved(self, small_spec):
        shard = small_spec.shard(1, 3)
        assert shard.parent_hash == small_spec.spec_hash()
        assert shard.spec == small_spec
        assert shard.label == "shard 2/3"

    def test_invalid_shards_rejected(self, small_spec):
        with pytest.raises(InvalidParameterError):
            small_spec.shard(0, 0)
        with pytest.raises(InvalidParameterError):
            small_spec.shard(-1, 3)
        with pytest.raises(InvalidParameterError):
            small_spec.shard(3, 3)
        with pytest.raises(InvalidParameterError):
            CampaignShard(spec=small_spec, index=5, count=2)


class TestChunkRanges:
    def test_ranges_tile_the_request_exactly(self):
        ranges = chunk_ranges(0, 100, 32)
        assert ranges == ((0, 32), (32, 64), (64, 96), (96, 100))

    def test_boundaries_are_globally_aligned(self):
        # A range starting mid-chunk first closes out the global chunk, so
        # its interior chunks coincide with an unsharded run's.
        assert chunk_ranges(40, 100, 32) == ((40, 64), (64, 96), (96, 100))
        assert chunk_ranges(32, 100, 32) == ((32, 64), (64, 96), (96, 100))

    def test_small_and_empty_ranges(self):
        assert chunk_ranges(5, 5, 32) == ()
        assert chunk_ranges(5, 6, 32) == ((5, 6),)
        assert chunk_ranges(0, 7, 100) == ((0, 7),)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(InvalidParameterError):
            chunk_ranges(0, 10, 0)
        with pytest.raises(InvalidParameterError):
            chunk_ranges(-1, 10, 4)
        with pytest.raises(InvalidParameterError):
            chunk_ranges(10, 5, 4)
