"""Unit tests for repro.simulation.montecarlo."""

import threading

import numpy as np
import pytest

from repro.campaign.spec import LinkSimSpec
from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.montecarlo import (
    collect_adaptive_accounting,
    fading_sum_rate_statistics,
    fused_link_values,
    outage_probability,
    simulate_protocol,
)


@pytest.fixture
def fast_codec():
    return LinkCodec(payload_bits=32, code=TEST_CODE, crc=CRC8)


class TestSimulateProtocol:
    def test_high_snr_campaign_is_clean(self, fast_codec, paper_gains):
        rng = np.random.default_rng(1)
        report = simulate_protocol(
            Protocol.MABC,
            paper_gains,
            power=10**2.0,  # 20 dB
            n_rounds=15,
            rng=rng,
            codec=fast_codec,
        )
        assert report.a_to_b.fer == 0.0
        assert report.b_to_a.fer == 0.0
        assert report.sum_goodput > 0.0
        assert report.relay_failures == 0

    def test_zero_snr_campaign_fails(self, fast_codec):
        rng = np.random.default_rng(2)
        weak = LinkGains.from_db(-30.0, -30.0, -30.0)
        report = simulate_protocol(
            Protocol.TDBC, weak, power=1.0, n_rounds=10, rng=rng, codec=fast_codec
        )
        assert report.a_to_b.fer > 0.5
        assert report.sum_goodput < 0.05

    def test_round_count_respected(self, fast_codec, paper_gains):
        rng = np.random.default_rng(3)
        report = simulate_protocol(
            Protocol.DT, paper_gains, power=100.0, n_rounds=7, rng=rng, codec=fast_codec
        )
        assert report.n_rounds == 7
        assert report.a_to_b.frames == 7

    def test_invalid_rounds_rejected(self, fast_codec, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            simulate_protocol(
                Protocol.DT,
                paper_gains,
                power=1.0,
                n_rounds=0,
                rng=rng,
                codec=fast_codec,
            )

    def test_goodput_below_analytic_bound(self, fast_codec, paper_gains):
        """Operational goodput can never exceed the capacity bound."""
        from repro.core.capacity import optimal_sum_rate
        from repro.core.gaussian import GaussianChannel

        rng = np.random.default_rng(4)
        power = 10.0
        report = simulate_protocol(
            Protocol.MABC,
            paper_gains,
            power=power,
            n_rounds=10,
            rng=rng,
            codec=fast_codec,
        )
        bound = optimal_sum_rate(
            Protocol.MABC, GaussianChannel(gains=paper_gains, power=power)
        ).sum_rate
        assert report.sum_goodput <= bound + 1e-9


class TestFadingStatistics:
    def test_ergodic_rate_positive(self, paper_gains):
        rng = np.random.default_rng(5)
        stats = fading_sum_rate_statistics(
            Protocol.MABC, paper_gains, power=10.0, n_draws=40, rng=rng
        )
        assert stats.mean > 0
        assert stats.std_error > 0
        assert stats.samples.shape == (40,)

    def test_quantile_ordering(self, paper_gains):
        rng = np.random.default_rng(6)
        stats = fading_sum_rate_statistics(
            Protocol.MABC, paper_gains, power=10.0, n_draws=60, rng=rng
        )
        assert stats.quantile(0.1) <= stats.quantile(0.9)
        with pytest.raises(InvalidParameterError):
            stats.quantile(1.5)

    def test_rician_concentrates_toward_static(self, paper_gains):
        """High K-factor fading must approach the no-fading sum rate."""
        from repro.core.capacity import optimal_sum_rate
        from repro.core.gaussian import GaussianChannel

        rng = np.random.default_rng(7)
        static = optimal_sum_rate(
            Protocol.MABC, GaussianChannel(gains=paper_gains, power=10.0)
        ).sum_rate
        stats = fading_sum_rate_statistics(
            Protocol.MABC, paper_gains, power=10.0, n_draws=40, rng=rng, k_factor=1000.0
        )
        assert stats.mean == pytest.approx(static, rel=0.05)

    def test_draw_count_validated(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            fading_sum_rate_statistics(Protocol.DT, paper_gains, 1.0, 0, rng)


class TestOutage:
    def test_outage_monotone_in_target(self, paper_gains):
        rng = np.random.default_rng(8)
        low = outage_probability(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            target_sum_rate=0.5,
            n_draws=60,
            rng=np.random.default_rng(8),
        )
        high = outage_probability(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            target_sum_rate=5.0,
            n_draws=60,
            rng=np.random.default_rng(8),
        )
        assert low <= high

    def test_zero_target_never_in_outage(self, paper_gains):
        outage = outage_probability(
            Protocol.MABC,
            paper_gains,
            power=10.0,
            target_sum_rate=0.0,
            n_draws=30,
            rng=np.random.default_rng(9),
        )
        assert outage == 0.0

    def test_negative_target_rejected(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            outage_probability(Protocol.MABC, paper_gains, 1.0, -1.0, 10, rng)


class TestAdaptiveAccounting:
    def test_concurrent_campaigns_keep_separate_tallies(self):
        """Two threads each inside their own accounting block (as the serve
        daemon runs concurrent campaigns): thread A's adaptive cell must be
        tallied by A alone, even though B installed its tally later."""
        link = LinkSimSpec(
            n_rounds=4,
            payload_bits=24,
            seed=5,
            code="test",
            crc="crc8",
            metric="fer",
            target_rel_error=0.5,
            max_rounds=8,
        )
        a_entered = threading.Event()
        b_entered = threading.Event()
        a_evaluated = threading.Event()
        tallies = {}

        def campaign_a():
            with collect_adaptive_accounting() as tally:
                a_entered.set()
                assert b_entered.wait(timeout=60)
                fused_link_values(
                    Protocol.DT,
                    np.array([10.0]),
                    np.array([10.0]),
                    np.array([10.0]),
                    np.array([10.0]),
                    link=link,
                    indices=np.array([0]),
                )
                a_evaluated.set()
            tallies["A"] = tally.adaptive_cells

        def campaign_b():
            assert a_entered.wait(timeout=60)
            with collect_adaptive_accounting() as tally:
                b_entered.set()
                assert a_evaluated.wait(timeout=60)
            tallies["B"] = tally.adaptive_cells

        threads = [threading.Thread(target=f) for f in (campaign_a, campaign_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert tallies == {"A": 1, "B": 0}
