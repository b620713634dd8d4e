"""Finite-SNR diversity-multiplexing post-processing."""

import numpy as np
import pytest

from repro.api import evaluate
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.experiments.dmt import (
    DEFAULT_MULTIPLEXING_GAINS,
    finite_snr_dmt,
)
from repro.information.functions import db_to_linear
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def result():
    scenario = get_scenario(
        "finite-snr-dmt", snr_points_db=(5.0, 10.0), n_draws=40, seed=7
    )
    return evaluate(scenario, cache=False)


class TestValidation:
    def test_protocol_not_on_the_grid(self, result):
        with pytest.raises(InvalidParameterError, match="not in the evaluated"):
            finite_snr_dmt(result, Protocol.NAIVE4, 10.0)

    def test_deterministic_result_rejected(self):
        deterministic = evaluate("fig3-placement", cache=False)
        with pytest.raises(InvalidParameterError, match="fading ensemble"):
            finite_snr_dmt(deterministic, Protocol.MABC, 10.0)

    def test_nonpositive_power_rejected(self, result):
        with pytest.raises(InvalidParameterError, match="positive"):
            finite_snr_dmt(result, Protocol.MABC, 0.0)
        with pytest.raises(InvalidParameterError, match="positive"):
            finite_snr_dmt(result, Protocol.MABC, -5.0)

    def test_off_grid_power_rejected(self, result):
        with pytest.raises(InvalidParameterError, match="not on the grid"):
            finite_snr_dmt(result, Protocol.MABC, 12.0)

    def test_bad_multiplexing_gains_rejected(self, result):
        with pytest.raises(InvalidParameterError, match="multiplexing"):
            finite_snr_dmt(result, Protocol.MABC, 10.0, multiplexing_gains=())
        with pytest.raises(InvalidParameterError, match="multiplexing"):
            finite_snr_dmt(result, Protocol.MABC, 10.0, multiplexing_gains=(0.5, -0.1))


class TestCurve:
    def test_outage_matches_a_hand_reduction(self, result):
        curve = finite_snr_dmt(result, Protocol.MABC, 10.0)
        pi = result.spec.protocols.index(Protocol.MABC)
        wi = result.spec.powers_db.index(10.0)
        samples = np.moveaxis(
            result.values, result.axis_index("draw"), -1
        )[pi, wi].reshape(-1)
        snr = db_to_linear(10.0)
        for r, rate, p_out in zip(
            curve.multiplexing_gains,
            curve.target_rates,
            curve.outage_probabilities,
        ):
            assert rate == pytest.approx(r * np.log2(1.0 + snr))
            assert p_out == np.count_nonzero(samples < rate) / samples.size

    def test_diversity_definition(self, result):
        curve = finite_snr_dmt(result, Protocol.TDBC, 10.0)
        snr = curve.snr
        for p_out, d in zip(curve.outage_probabilities, curve.diversity_gains):
            if p_out == 0.0:
                assert d == float("inf")
            else:
                assert d == pytest.approx(-np.log(p_out) / np.log(snr))
                assert not (d == 0.0 and np.signbit(d))

    def test_no_outage_gives_infinite_diversity(self, result):
        curve = finite_snr_dmt(result, Protocol.MABC, 10.0, multiplexing_gains=(1e-6,))
        assert curve.outage_probabilities == (0.0,)
        assert curve.diversity_gains == (float("inf"),)

    def test_outage_is_monotone_in_the_multiplexing_gain(self, result):
        curve = finite_snr_dmt(result, Protocol.HBC, 5.0)
        outage = curve.outage_probabilities
        assert all(a <= b for a, b in zip(outage, outage[1:]))

    def test_rows_shape_and_metadata(self, result):
        curve = finite_snr_dmt(result, Protocol.MABC, 10.0)
        rows = curve.rows()
        assert len(rows) == len(DEFAULT_MULTIPLEXING_GAINS)
        assert all(len(row) == 4 for row in rows)
        assert curve.n_draws == 40
        assert curve.power_db == 10.0
        assert curve.snr == pytest.approx(10.0)
