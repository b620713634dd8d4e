"""Unit tests for the ``grid`` scenario as a power sweep.

With ``draws=0`` the grid evaluates the mean gains, so its power axis is
the sum-rate-versus-power sweep: every cell is one protocol's optimal
sum rate at one power, computed by the batched kernel.
"""

import numpy as np
import pytest

from repro.api import evaluate
from repro.core.capacity import compare_protocols
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.information.functions import db_to_linear
from repro.scenarios import get_scenario
from repro.scenarios.builtin import grid_scenario


def _sum_rates(powers_db, protocols="all", **gains_db) -> dict:
    """Protocol -> sum rates over ``powers_db`` at the mean gains."""
    result = evaluate(
        grid_scenario(protocols=protocols, powers_db=powers_db, draws=0, **gains_db)
    )
    rates = result.values[:, :, 0, 0]
    return dict(zip(result.spec.protocols, rates))


class TestPowerSweep:
    def test_axes_cover_powers(self):
        result = evaluate(grid_scenario(powers_db=(0.0, 10.0), draws=0))
        assert result.spec.powers_db == (0.0, 10.0)
        assert result.values.shape == (4, 2, 1, 1)

    def test_scalar_power_is_one_point(self):
        spec = grid_scenario(powers_db=10, draws=0).to_campaign_spec()
        assert spec.powers_db == (10.0,)

    def test_rates_monotone_in_power(self):
        for rates in _sum_rates((0.0, 5.0, 10.0, 15.0)).values():
            assert np.all(np.diff(rates) >= -1e-9)

    def test_protocol_subset(self):
        spec = grid_scenario(protocols="mabc,tdbc", draws=0).to_campaign_spec()
        assert spec.protocols == (Protocol.MABC, Protocol.TDBC)

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParameterError):
            grid_scenario(powers_db=(), draws=0)

    def test_negative_draws_rejected(self):
        with pytest.raises(InvalidParameterError):
            grid_scenario(draws=-1)

    def test_names_and_sequences_lower_to_the_same_spec(self):
        by_name = get_scenario("grid", protocols="mabc,hbc", powers_db=[0, 10])
        by_value = grid_scenario(
            protocols=(Protocol.MABC, Protocol.HBC), powers_db=(0.0, 10.0)
        )
        assert (
            by_name.to_campaign_spec().spec_hash()
            == by_value.to_campaign_spec().spec_hash()
        )

    def test_matches_per_point_highs_loop(self, paper_gains):
        """The kernel's sweep reproduces a per-point HiGHS loop."""
        powers = (0.0, 7.5, 15.0)
        rates = _sum_rates(powers)
        for index, power_db in enumerate(powers):
            channel = GaussianChannel(gains=paper_gains, power=db_to_linear(power_db))
            oracle = compare_protocols(channel, protocols=tuple(rates))
            for protocol, point in oracle.sum_rates.items():
                assert rates[protocol][index] == pytest.approx(point.sum_rate, abs=1e-7)

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_executors_are_bitwise_equal(self, executor):
        scenario = grid_scenario(powers_db=(0.0, 7.5, 15.0), draws=0)
        default = evaluate(scenario).values
        named = evaluate(scenario, executor=executor).values
        assert default.tobytes() == named.tobytes()

    def test_evaluation_is_warning_free(self, recwarn):
        evaluate(grid_scenario(protocols="mabc", powers_db=10.0, draws=0))
        assert not [w for w in recwarn.list if issubclass(w.category, Warning)]


class TestCrossovers:
    def test_hbc_is_best_at_every_power(self):
        rates = _sum_rates((0.0, 5.0, 10.0))
        best = np.max(np.stack(list(rates.values())), axis=0)
        assert np.all(rates[Protocol.HBC] >= best - 1e-6)

    def test_no_crossover_between_nested_protocols(self):
        """HBC contains MABC and TDBC, so the sign never flips."""
        rates = _sum_rates(tuple(np.arange(-5.0, 21.0, 5.0)))
        for special in (Protocol.MABC, Protocol.TDBC):
            assert np.all(rates[Protocol.HBC] >= rates[special] - 1e-8)

    def test_weak_relay_mabc_dt_crossover(self):
        """A weak relay: MABC wins at low SNR, DT at high SNR."""
        rates = _sum_rates((-15.0, 25.0), gab_db=0.0, gar_db=2.0, gbr_db=2.0)
        gap = rates[Protocol.MABC] - rates[Protocol.DT]
        assert gap[0] > 0 > gap[1]

    def test_symmetric_relay_mabc_tdbc_crossover(self):
        """A symmetric relay: MABC wins at low SNR, TDBC's side
        information at high SNR."""
        rates = _sum_rates((-10.0, 25.0), gab_db=0.0, gar_db=3.0, gbr_db=3.0)
        gap = rates[Protocol.MABC] - rates[Protocol.TDBC]
        assert gap[0] > 0 > gap[1]
