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
    FadingStatistics,
    collect_adaptive_accounting,
    fading_sum_rate_statistics,
    fused_link_values,
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

    @pytest.mark.parametrize("method", ["batched", "reference"])
    @pytest.mark.parametrize("power", [float("nan"), float("inf"), -1.0])
    def test_bad_power_rejected(self, fast_codec, paper_gains, rng, method, power):
        with pytest.raises(InvalidParameterError, match="finite and non-negative"):
            simulate_protocol(
                Protocol.DT,
                paper_gains,
                power=power,
                n_rounds=2,
                rng=rng,
                codec=fast_codec,
                method=method,
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

    def test_sorted_samples_give_monotone_quantiles(self, mabc_stats):
        curve = np.sort(mabc_stats.samples)
        assert np.all(np.diff(curve) >= 0)
        rates = [mabc_stats.quantile(eps) for eps in (0.05, 0.25, 0.5, 0.9)]
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(rates, rates[1:]))
        assert mabc_stats.quantile(0.0) == curve[0]
        assert mabc_stats.quantile(1.0) == curve[-1]

    def test_outage_monotone_in_target(self, mabc_stats):
        outages = [mabc_stats.outage_at(t) for t in (0.1, 1.0, 3.0, 10.0)]
        assert all(o1 <= o2 + 1e-12 for o1, o2 in zip(outages, outages[1:]))

    def test_quantile_outage_round_trip(self, mabc_stats):
        """outage_at(quantile(eps)) <= eps up to the empirical grid."""
        for eps in (0.1, 0.3, 0.7):
            rate = mabc_stats.quantile(eps)
            assert mabc_stats.outage_at(rate) <= eps + 1.0 / mabc_stats.samples.size

    def test_extreme_targets(self, mabc_stats):
        assert mabc_stats.outage_at(0.0) == 0.0
        assert mabc_stats.outage_at(1e9) == 1.0

    def test_domain_validation(self, mabc_stats):
        with pytest.raises(InvalidParameterError):
            mabc_stats.quantile(-0.1)
        with pytest.raises(InvalidParameterError):
            mabc_stats.outage_at(-1.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_non_finite_target_rejected(self, mabc_stats, target):
        with pytest.raises(InvalidParameterError, match="finite"):
            mabc_stats.outage_at(target)

    def test_outage_at_counts_draws_strictly_below_target(self):
        stats = FadingStatistics(
            mean=2.5, std_error=0.0, samples=np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert stats.outage_at(2.0) == 0.25
        assert stats.outage_at(2.5) == 0.5
        assert stats.outage_at(4.0) == 0.75
        assert stats.outage_at(4.5) == 1.0

    def test_quantile_interpolates_between_draws(self):
        stats = FadingStatistics(
            mean=2.5, std_error=0.0, samples=np.array([4.0, 1.0, 3.0, 2.0])
        )
        assert stats.quantile(0.0) == 1.0
        assert stats.quantile(0.5) == 2.5
        assert stats.quantile(1.0) == 4.0

    def test_single_draw_has_zero_standard_error(self, paper_gains):
        stats = fading_sum_rate_statistics(
            Protocol.TDBC, paper_gains, 10.0, 1, np.random.default_rng(17)
        )
        assert stats.std_error == 0.0
        assert stats.mean == stats.samples[0]

    def test_hbc_outage_rate_dominates(self, paper_gains):
        """Pointwise HBC >= MABC implies quantile dominance (paired RNG)."""

        def outage_rate(protocol):
            stats = fading_sum_rate_statistics(
                protocol, paper_gains, 10.0, 40, np.random.default_rng(13)
            )
            return stats.quantile(0.1)

        assert outage_rate(Protocol.HBC) >= outage_rate(Protocol.MABC) - 1e-9

    def test_kernel_matches_per_draw_lp_loop(self, paper_gains):
        """The batched kernel and a per-draw HiGHS loop agree draw for draw."""
        from repro.channels.fading import sample_gain_ensemble
        from repro.core.capacity import optimal_sum_rate
        from repro.core.gaussian import GaussianChannel

        stats = fading_sum_rate_statistics(
            Protocol.HBC, paper_gains, 10.0, 20, np.random.default_rng(21)
        )
        ensemble = sample_gain_ensemble(paper_gains, 20, np.random.default_rng(21))
        oracle = [
            optimal_sum_rate(Protocol.HBC, GaussianChannel(gains=draw, power=10.0))
            for draw in ensemble
        ]
        np.testing.assert_allclose(
            stats.samples, [point.sum_rate for point in oracle], atol=1e-7
        )

    def test_executor_none_is_the_vectorized_default(self, paper_gains):
        def samples(executor):
            return fading_sum_rate_statistics(
                Protocol.HBC,
                paper_gains,
                10.0,
                20,
                np.random.default_rng(21),
                executor=executor,
            ).samples

        assert samples(None).tobytes() == samples("vectorized").tobytes()


@pytest.fixture(scope="module")
def mabc_stats():
    return fading_sum_rate_statistics(
        Protocol.MABC,
        LinkGains.from_db(-7.0, 0.0, 5.0),
        power=10.0,
        n_draws=80,
        rng=np.random.default_rng(11),
    )


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
