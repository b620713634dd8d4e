"""Unit tests for repro.core.gaussian."""

import numpy as np
import pytest

from repro.campaign.kernel import batched_sum_rates
from repro.channels.gains import LinkGains
from repro.channels.power import NodePowers
from repro.core.bounds import mabc_inner, tdbc_inner
from repro.core.capacity import optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.core.terms import MiKey
from repro.exceptions import InvalidParameterError
from repro.information.functions import gaussian_capacity


class TestMiValues:
    def test_single_links(self, channel_high, paper_gains):
        p = channel_high.power
        assert channel_high.mi_value(MiKey.LINK_AR) == pytest.approx(
            gaussian_capacity(p * paper_gains.gar))
        assert channel_high.mi_value(MiKey.LINK_BR) == pytest.approx(
            gaussian_capacity(p * paper_gains.gbr))
        assert channel_high.mi_value(MiKey.LINK_AB) == pytest.approx(
            gaussian_capacity(p * paper_gains.gab))

    def test_mac_sum_value(self, channel_high, paper_gains):
        p = channel_high.power
        expected = gaussian_capacity(p * (paper_gains.gar + paper_gains.gbr))
        assert channel_high.mi_value(MiKey.MAC_SUM) == pytest.approx(expected)

    def test_simo_cut_values(self, channel_high, paper_gains):
        p = channel_high.power
        assert channel_high.mi_value(MiKey.CUT_A_RB) == pytest.approx(
            gaussian_capacity(p * (paper_gains.gar + paper_gains.gab)))
        assert channel_high.mi_value(MiKey.CUT_B_RA) == pytest.approx(
            gaussian_capacity(p * (paper_gains.gbr + paper_gains.gab)))

    def test_mi_values_covers_all_keys(self, channel_high):
        values = channel_high.mi_values()
        assert set(values) == set(MiKey)

    def test_cut_dominates_single_link(self, channel_high):
        # Adding a receiver can only increase mutual information.
        assert channel_high.mi_value(MiKey.CUT_A_RB) >= \
            channel_high.mi_value(MiKey.LINK_AR)
        assert channel_high.mi_value(MiKey.MAC_SUM) >= \
            channel_high.mi_value(MiKey.LINK_BR)


class TestConstruction:
    def test_from_db(self):
        channel = GaussianChannel.from_db(
            power_db=10.0, gab_db=-7.0, gar_db=0.0, gbr_db=5.0
        )
        assert channel.power == pytest.approx(10.0)
        assert channel.gains.gar == pytest.approx(1.0)

    def test_negative_power_rejected(self, paper_gains):
        with pytest.raises(InvalidParameterError):
            GaussianChannel(gains=paper_gains, power=-1.0)

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_non_finite_power_rejected(self, paper_gains, power):
        with pytest.raises(InvalidParameterError, match="finite"):
            GaussianChannel(gains=paper_gains, power=power)
        with pytest.raises(InvalidParameterError, match="finite"):
            GaussianChannel(gains=paper_gains, power={"a": 1.0, "b": 1.0, "r": power})

    def test_with_power(self, channel_high):
        scaled = channel_high.with_power(2.0)
        assert scaled.power == 2.0
        assert scaled.gains == channel_high.gains

    def test_with_gains(self, channel_high):
        new_gains = LinkGains(1.0, 1.0, 1.0)
        moved = channel_high.with_gains(new_gains)
        assert moved.gains == new_gains
        assert moved.power == channel_high.power

    def test_describe_contains_db_values(self, channel_high):
        text = channel_high.describe()
        assert "P=10.0 dB" in text
        assert "G_ab=-7.0 dB" in text


class TestEvaluate:
    def test_mabc_coefficients(self, channel_high, paper_gains):
        evaluated = channel_high.evaluate(mabc_inner())
        p = channel_high.power
        car = gaussian_capacity(p * paper_gains.gar)
        cbr = gaussian_capacity(p * paper_gains.gbr)
        coeffs = {tuple(c.rates): [] for c in evaluated.constraints}
        for c in evaluated.constraints:
            coeffs[tuple(c.rates)].append(c.coefficients)
        assert (car, 0.0) in [tuple(v) for v in coeffs[("Ra",)]]
        assert (0.0, cbr) in [tuple(v) for v in coeffs[("Ra",)]]

    def test_rate_caps_at_fixed_durations(self, channel_high, paper_gains):
        evaluated = channel_high.evaluate(mabc_inner())
        caps = evaluated.rate_caps((0.5, 0.5))
        p = channel_high.power
        car = gaussian_capacity(p * paper_gains.gar)
        cbr = gaussian_capacity(p * paper_gains.gbr)
        cmac = gaussian_capacity(p * (paper_gains.gar + paper_gains.gbr))
        assert caps["Ra"] == pytest.approx(0.5 * min(car, cbr))
        assert caps["Rb"] == pytest.approx(0.5 * min(car, cbr))
        assert caps["Ra+Rb"] == pytest.approx(0.5 * cmac)

    def test_dt_caps_have_no_sum_constraint(self, channel_high):
        from repro.core.bounds import dt_capacity

        evaluated = channel_high.evaluate(dt_capacity())
        caps = evaluated.rate_caps((0.5, 0.5))
        assert caps["Ra+Rb"] == float("inf")

    def test_constraints_for_filtering(self, channel_high):
        evaluated = channel_high.evaluate(tdbc_inner())
        assert len(evaluated.constraints_for(("Ra",))) == 2
        assert len(evaluated.constraints_for(("Rb",))) == 2
        assert evaluated.constraints_for(("Ra", "Rb")) == []

    def test_bound_at_duration_mismatch_rejected(self, channel_high):
        evaluated = channel_high.evaluate(mabc_inner())
        with pytest.raises(InvalidParameterError):
            evaluated.constraints[0].bound_at((1.0,))

    def test_zero_power_kills_all_rates(self, paper_gains):
        channel = GaussianChannel(gains=paper_gains, power=0.0)
        evaluated = channel.evaluate(mabc_inner())
        caps = evaluated.rate_caps((0.5, 0.5))
        assert caps["Ra"] == 0.0
        assert caps["Rb"] == 0.0


class TestNodePowers:
    """Per-node powers through the LP path, cross-checked against the kernel."""

    def test_uniform_node_powers_match_scalar_bitwise(self, paper_gains):
        scalar = GaussianChannel(gains=paper_gains, power=4.0)
        per_node = GaussianChannel(gains=paper_gains, power=NodePowers.uniform(4.0))
        for key in MiKey:
            assert per_node.mi_value(key) == scalar.mi_value(key)

    def test_mapping_power_is_normalized(self, paper_gains):
        channel = GaussianChannel(
            gains=paper_gains, power={"a": 1.0, "b": 2.0, "r": 3.0}
        )
        assert isinstance(channel.power, NodePowers)
        assert channel.power == NodePowers(pa=1.0, pb=2.0, pr=3.0)

    def test_snr_transmitter_validation(self, paper_gains):
        channel = GaussianChannel(
            gains=paper_gains, power=NodePowers(pa=1.0, pb=2.0, pr=3.0)
        )
        with pytest.raises(InvalidParameterError, match="cannot be driven"):
            channel.snr(MiKey.LINK_AR, transmitter="b")

    def test_mac_sum_splits_by_source_power(self, paper_gains):
        channel = GaussianChannel(
            gains=paper_gains, power=NodePowers(pa=2.0, pb=6.0, pr=1.0)
        )
        expected = 2.0 * paper_gains.gar + 6.0 * paper_gains.gbr
        assert channel.snr(MiKey.MAC_SUM) == expected

    @pytest.mark.parametrize("protocol", tuple(Protocol))
    def test_asymmetric_lp_matches_the_campaign_kernel(self, protocol, paper_gains):
        powers = NodePowers(pa=2.5, pb=7.0, pr=12.0)
        channel = GaussianChannel(gains=paper_gains, power=powers)
        lp_value = optimal_sum_rate(protocol, channel).sum_rate
        kernel_value = batched_sum_rates(
            protocol,
            np.array([paper_gains.gab]),
            np.array([paper_gains.gar]),
            np.array([paper_gains.gbr]),
            powers.as_array()[np.newaxis, :],
        )[0]
        assert lp_value == pytest.approx(kernel_value, abs=1e-9)

    @pytest.mark.parametrize("protocol", tuple(Protocol))
    def test_uniform_lp_matches_scalar_lp_bitwise(self, protocol, paper_gains):
        scalar = GaussianChannel(gains=paper_gains, power=9.0)
        per_node = GaussianChannel(gains=paper_gains, power=NodePowers.uniform(9.0))
        assert (
            optimal_sum_rate(protocol, per_node).sum_rate
            == optimal_sum_rate(protocol, scalar).sum_rate
        )
