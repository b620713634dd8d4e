"""Unit tests for epsilon-outage capacity."""

import numpy as np
import pytest

from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation.outage_capacity import (
    outage_sum_rate,
    sample_outage_curve,
)


@pytest.fixture(scope="module")
def curve(paper_gains=None):
    from repro.channels.gains import LinkGains

    gains = LinkGains.from_db(-7.0, 0.0, 5.0)
    return sample_outage_curve(
        Protocol.MABC, gains, power=10.0, n_draws=80, rng=np.random.default_rng(11)
    )


class TestOutageCurve:
    def test_samples_sorted(self, curve):
        assert np.all(np.diff(curve.samples) >= 0)

    def test_rate_monotone_in_epsilon(self, curve):
        rates = [curve.rate_at_outage(eps) for eps in (0.05, 0.25, 0.5, 0.9)]
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_outage_monotone_in_target(self, curve):
        outages = [curve.outage_at_rate(t) for t in (0.1, 1.0, 3.0, 10.0)]
        assert all(o1 <= o2 + 1e-12 for o1, o2 in zip(outages, outages[1:]))

    def test_round_trip_consistency(self, curve):
        """outage(rate_at_outage(eps)) <= eps up to the empirical grid."""
        for eps in (0.1, 0.3, 0.7):
            rate = curve.rate_at_outage(eps)
            assert curve.outage_at_rate(rate) <= eps + 1.0 / curve.samples.size

    def test_extreme_targets(self, curve):
        assert curve.outage_at_rate(0.0) == 0.0
        assert curve.outage_at_rate(1e9) == 1.0

    def test_domain_validation(self, curve):
        with pytest.raises(InvalidParameterError):
            curve.rate_at_outage(1.5)
        with pytest.raises(InvalidParameterError):
            curve.outage_at_rate(-1.0)


class TestOutageSumRate:
    def test_matches_curve_quantile(self, paper_gains):
        value = outage_sum_rate(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            epsilon=0.1,
            n_draws=40,
            rng=np.random.default_rng(12),
        )
        curve = sample_outage_curve(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            n_draws=40,
            rng=np.random.default_rng(12),
        )
        assert value == pytest.approx(curve.rate_at_outage(0.1))

    def test_hbc_outage_dominates(self, paper_gains):
        """Pointwise HBC >= MABC implies quantile dominance (paired RNG)."""
        hbc = outage_sum_rate(
            Protocol.HBC,
            paper_gains,
            power=10.0,
            epsilon=0.1,
            n_draws=40,
            rng=np.random.default_rng(13),
        )
        mabc = outage_sum_rate(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            epsilon=0.1,
            n_draws=40,
            rng=np.random.default_rng(13),
        )
        assert hbc >= mabc - 1e-9

    def test_draws_validated(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            sample_outage_curve(Protocol.DT, paper_gains, 1.0, 0, rng)

    def test_campaign_path_matches_legacy_lp_loop(self, paper_gains):
        """Campaign executor and per-draw LP loop agree draw for draw."""
        fast = sample_outage_curve(
            Protocol.HBC,
            paper_gains,
            power=10.0,
            n_draws=20,
            rng=np.random.default_rng(21),
        )
        legacy = sample_outage_curve(
            Protocol.HBC,
            paper_gains,
            power=10.0,
            n_draws=20,
            rng=np.random.default_rng(21),
            executor=None,
        )
        np.testing.assert_allclose(fast.samples, legacy.samples, atol=1e-7)
