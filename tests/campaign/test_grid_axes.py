"""Unit tests for GridAxis and extensible-axis campaign specs."""

import numpy as np
import pytest

from repro.campaign.engine import _grid_batches, run_campaign
from repro.campaign.spec import CampaignSpec, FadingSpec, GridAxis
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.information.functions import db_to_linear


@pytest.fixture
def pair_axis():
    return GridAxis(
        name="pair",
        values=(
            {"gain_offsets_db": (0.0, 0.0, 0.0)},
            {"gain_offsets_db": (-3.0, 2.0, -1.0)},
        ),
        labels=("near", "far"),
    )


@pytest.fixture
def policy_axis():
    return GridAxis(
        name="power_policy",
        values=({"power_db_offset": 0.0}, {"power_db_offset": -6.0}),
    )


@pytest.fixture
def extended_spec(paper_gains, pair_axis, policy_axis):
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.HBC),
        powers_db=(10.0,),
        gains=(paper_gains,),
        fading=FadingSpec(n_draws=3, seed=1),
        extra_axes=(pair_axis, policy_axis),
    )


class TestGridAxis:
    def test_length_and_labels(self, pair_axis):
        assert len(pair_axis) == 2
        assert pair_axis.display_labels == ("near", "far")

    def test_labels_default_to_str_values(self):
        axis = GridAxis(name="x", values=({"power_db_offset": 1.0},))
        assert axis.display_labels == (str({"power_db_offset": 1.0}),)

    def test_values_canonicalized_to_plain_data(self):
        axis = GridAxis(name="x", values=({"gain_offsets_db": (1, 2, 3)},))
        assert axis.values == ({"gain_offsets_db": [1, 2, 3]},)

    def test_dict_round_trip(self, pair_axis):
        clone = GridAxis.from_dict(pair_axis.to_dict())
        assert clone == pair_axis

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GridAxis(name="", values=(1,))
        with pytest.raises(InvalidParameterError):
            GridAxis(name="x", values=())
        with pytest.raises(InvalidParameterError):
            GridAxis(name="x", values=(1, 2), labels=("one",))
        with pytest.raises(InvalidParameterError):
            GridAxis(name="x", values=(object(),))


class TestExtendedSpecStructure:
    def test_grid_shape_inserts_axes_between_power_and_gains(self, extended_spec):
        assert extended_spec.grid_shape == (2, 1, 2, 2, 1, 3)
        assert extended_spec.n_units == 24
        assert extended_spec.axis_names == (
            "protocol",
            "power",
            "pair",
            "power_policy",
            "gains",
            "draw",
        )

    def test_axes_property_names_every_dimension(self, extended_spec):
        axes = extended_spec.axes
        assert [axis.name for axis in axes] == list(extended_spec.axis_names)
        assert [len(axis) for axis in axes] == list(extended_spec.grid_shape)

    def test_block_params_applies_overrides(self, extended_spec):
        # Block order is C order over (protocol, power, pair, policy).
        protocol, power, scale = extended_spec.block_params(0)
        assert protocol is Protocol.MABC
        assert power == db_to_linear(10.0)
        assert np.allclose(scale, [1.0, 1.0, 1.0])
        # Last block: HBC, far pair, -6 dB backoff.
        protocol, power, scale = extended_spec.block_params(7)
        assert protocol is Protocol.HBC
        assert power == db_to_linear(4.0)
        expected = [db_to_linear(-3.0), db_to_linear(2.0), db_to_linear(-1.0)]
        assert np.allclose(scale, expected)

    def test_block_params_bounds_checked(self, extended_spec):
        with pytest.raises(InvalidParameterError):
            extended_spec.block_params(-1)
        with pytest.raises(InvalidParameterError):
            extended_spec.block_params(extended_spec.n_blocks)

    def test_grid_batches_cover_the_grid_with_scaled_gains(self, extended_spec):
        draws = extended_spec.sample_gain_draws()
        batches = _grid_batches(
            extended_spec, draws.reshape(-1, 3), 0, extended_spec.n_units
        )
        # One batch per protocol run, each covering that protocol's blocks.
        assert [b.protocol for b in batches] == [Protocol.MABC, Protocol.HBC]
        per_protocol = extended_spec.n_units // 2
        assert [len(b) for b in batches] == [per_protocol, per_protocol]
        # Block 2 in C order over (protocol, power, pair, policy) is
        # (MABC, 10 dB, far pair, zero backoff); its first unit is draw 0.
        batch = batches[0]
        first = 2 * extended_spec.n_channels
        assert batch.protocol is Protocol.MABC
        assert batch.gab[first] == draws[0, 0, 0] * db_to_linear(-3.0)
        assert batch.gar[first] == draws[0, 0, 1] * db_to_linear(2.0)
        assert batch.gbr[first] == draws[0, 0, 2] * db_to_linear(-1.0)
        assert batch.power[first] == db_to_linear(10.0)

    def test_dict_round_trip(self, extended_spec):
        clone = CampaignSpec.from_dict(extended_spec.to_dict())
        assert clone == extended_spec
        assert clone.spec_hash() == extended_spec.spec_hash()

    def test_labels_are_cosmetic_and_do_not_move_the_hash(
        self, extended_spec, policy_axis
    ):
        relabeled = CampaignSpec(
            protocols=extended_spec.protocols,
            powers_db=extended_spec.powers_db,
            gains=extended_spec.gains,
            fading=extended_spec.fading,
            extra_axes=(
                GridAxis(
                    name="pair",
                    values=extended_spec.extra_axes[0].values,
                    labels=("renamed-1", "renamed-2"),
                ),
                policy_axis,
            ),
        )
        assert relabeled != extended_spec
        assert relabeled.spec_hash() == extended_spec.spec_hash()
        assert "labels" not in relabeled.to_dict(labels=False)["axes"][0]

    def test_axis_values_affect_the_hash(self, extended_spec, pair_axis):
        other = CampaignSpec(
            protocols=extended_spec.protocols,
            powers_db=extended_spec.powers_db,
            gains=extended_spec.gains,
            fading=extended_spec.fading,
            extra_axes=(
                pair_axis,
                GridAxis(
                    name="power_policy",
                    values=({"power_db_offset": 0.0}, {"power_db_offset": -7.0}),
                ),
            ),
        )
        assert other.spec_hash() != extended_spec.spec_hash()


class TestExtendedSpecValidation:
    def test_reserved_axis_names_rejected(self, paper_gains):
        for reserved in ("protocol", "power", "gains", "draw"):
            with pytest.raises(InvalidParameterError):
                CampaignSpec(
                    protocols=(Protocol.MABC,),
                    powers_db=(10.0,),
                    gains=(paper_gains,),
                    extra_axes=(
                        GridAxis(name=reserved, values=({"power_db_offset": 1.0},)),
                    ),
                )

    def test_duplicate_axis_names_rejected(self, paper_gains, policy_axis):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=(policy_axis, policy_axis),
            )

    def test_unknown_override_keys_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=(GridAxis(name="x", values=({"bogus": 1.0},)),),
            )

    def test_non_mapping_values_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=(GridAxis(name="x", values=(1.0,)),),
            )

    def test_wrong_length_gain_offsets_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=(
                    GridAxis(name="x", values=({"gain_offsets_db": (1.0, 2.0)},)),
                ),
            )

    def test_non_axis_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(
                protocols=(Protocol.MABC,),
                powers_db=(10.0,),
                gains=(paper_gains,),
                extra_axes=("pair",),
            )


class TestExtendedSpecExecution:
    def test_executors_agree_bitwise(self, extended_spec):
        vectorized = run_campaign(extended_spec)
        serial = run_campaign(extended_spec, executor="serial")
        process = run_campaign(extended_spec, executor="process")
        assert vectorized.values.tobytes() == serial.values.tobytes()
        assert vectorized.values.tobytes() == process.values.tobytes()
        assert vectorized.values.shape == extended_spec.grid_shape

    def test_overrides_change_the_numbers(self, extended_spec):
        values = run_campaign(extended_spec).values
        # The far pair sees a different channel than the near pair.
        assert not np.array_equal(values[:, :, 0], values[:, :, 1])
        # The -6 dB backoff lowers every optimal sum rate.
        assert np.all(values[..., 1, :, :] < values[..., 0, :, :])
