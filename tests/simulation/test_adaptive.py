"""Unit tests for adaptive protocol selection under fading."""

import numpy as np
import pytest

from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation.adaptive import AdaptiveReport, adaptive_sum_rate


class TestAdaptiveSumRate:
    def test_adaptive_dominates_fixed(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=50, rng=np.random.default_rng(1)
        )
        for mean in report.fixed_means.values():
            assert report.adaptive_mean >= mean - 1e-12
        assert report.adaptivity_gain >= -1e-12

    def test_winner_counts_partition_draws(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=40, rng=np.random.default_rng(2)
        )
        assert sum(report.winner_counts.values()) == 40
        assert sum(
            report.selection_frequency(p) for p in report.winner_counts
        ) == pytest.approx(1.0)

    def test_both_protocols_win_sometimes(self, paper_gains):
        """Fading sweeps the channel through both regimes, so the MABC/TDBC
        selection should be genuinely mixed at a mid power."""
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=120, rng=np.random.default_rng(3)
        )
        assert report.winner_counts[Protocol.MABC] > 0
        assert report.winner_counts[Protocol.TDBC] > 0

    def test_single_candidate_has_zero_gain(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains,
            power=5.0,
            n_draws=20,
            rng=np.random.default_rng(4),
            candidates=(Protocol.MABC,),
        )
        assert report.adaptivity_gain == pytest.approx(0.0, abs=1e-12)
        assert report.selection_frequency(Protocol.MABC) == 1.0

    def test_hbc_candidate_absorbs_all_wins(self, paper_gains):
        """HBC contains the other two, so with HBC in the pool the
        adaptivity gain over fixed HBC is exactly zero."""
        report = adaptive_sum_rate(
            paper_gains,
            power=10.0,
            n_draws=25,
            rng=np.random.default_rng(5),
            candidates=(Protocol.HBC, Protocol.MABC, Protocol.TDBC),
        )
        assert report.adaptive_mean == pytest.approx(
            report.fixed_means[Protocol.HBC], abs=1e-9
        )
        # Ties go to the earlier candidate, so HBC (listed first) wins them all.
        assert report.winner_counts[Protocol.HBC] == 25

    def test_validation(self, paper_gains, rng):
        with pytest.raises(InvalidParameterError):
            adaptive_sum_rate(paper_gains, power=1.0, n_draws=0, rng=rng)
        with pytest.raises(InvalidParameterError):
            adaptive_sum_rate(paper_gains, power=1.0, n_draws=5, rng=rng, candidates=())

    def test_report_type(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=1.0, n_draws=5, rng=np.random.default_rng(6)
        )
        assert isinstance(report, AdaptiveReport)
        assert report.n_draws == 5


class TestSelectionFrequencies:
    def test_frequencies_sum_to_one(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=30, rng=np.random.default_rng(7)
        )
        freqs = [report.selection_frequency(p) for p in report.winner_counts]
        assert sum(freqs) == pytest.approx(1.0)

    def test_non_candidate_never_selected(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=10, rng=np.random.default_rng(9)
        )
        assert report.selection_frequency(Protocol.HBC) == 0.0

    def test_gain_is_adaptive_minus_best_fixed(self, paper_gains):
        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=30, rng=np.random.default_rng(10)
        )
        best_fixed = max(report.fixed_means.values())
        assert report.adaptivity_gain == report.adaptive_mean - best_fixed

    def test_reproducible_with_seed(self, paper_gains):
        a = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=20, rng=np.random.default_rng(8)
        )
        b = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=20, rng=np.random.default_rng(8)
        )
        assert a == b


class TestPerDrawOracle:
    @pytest.mark.parametrize("power", [1.0, 100.0])
    def test_winner_counts_match_per_draw_lp_loop_across_powers(
        self, paper_gains, power
    ):
        from repro.channels.fading import sample_gain_ensemble
        from repro.core.capacity import optimal_sum_rate
        from repro.core.gaussian import GaussianChannel

        candidates = (Protocol.MABC, Protocol.TDBC)
        report = adaptive_sum_rate(
            paper_gains, power=power, n_draws=40, rng=np.random.default_rng(37)
        )
        ensemble = sample_gain_ensemble(paper_gains, 40, np.random.default_rng(37))

        def lp_rate(protocol, draw):
            channel = GaussianChannel(gains=draw, power=power)
            return optimal_sum_rate(protocol, channel).sum_rate

        rates = np.array([[lp_rate(p, draw) for p in candidates] for draw in ensemble])
        winners = [max(range(len(candidates)), key=row.__getitem__) for row in rates]
        assert report.winner_counts == {
            p: winners.count(j) for j, p in enumerate(candidates)
        }
        assert report.adaptive_mean == pytest.approx(rates.max(axis=1).mean(), abs=1e-9)

    @pytest.mark.parametrize(
        "candidates",
        [
            (Protocol.MABC, Protocol.TDBC),
            (Protocol.TDBC, Protocol.MABC, Protocol.NAIVE4, Protocol.DT),
        ],
        ids=["default", "four-candidates"],
    )
    def test_matches_per_draw_lp_loop(self, paper_gains, candidates):
        """Fixed means within 1e-9 and equal winner counts against a per-draw
        HiGHS loop that breaks ties toward the earlier candidate."""
        from repro.channels.fading import sample_gain_ensemble
        from repro.core.capacity import optimal_sum_rate
        from repro.core.gaussian import GaussianChannel

        report = adaptive_sum_rate(
            paper_gains,
            power=10.0,
            n_draws=60,
            rng=np.random.default_rng(31),
            candidates=candidates,
        )
        ensemble = sample_gain_ensemble(paper_gains, 60, np.random.default_rng(31))

        def lp_rate(protocol, draw):
            channel = GaussianChannel(gains=draw, power=10.0)
            return optimal_sum_rate(protocol, channel).sum_rate

        rates = np.array([[lp_rate(p, draw) for p in candidates] for draw in ensemble])
        for j, protocol in enumerate(candidates):
            assert report.fixed_means[protocol] == pytest.approx(
                rates[:, j].mean(), abs=1e-9
            )
        winners = [max(range(len(candidates)), key=row.__getitem__) for row in rates]
        assert report.winner_counts == {
            p: winners.count(j) for j, p in enumerate(candidates)
        }
        assert report.adaptive_mean == pytest.approx(rates.max(axis=1).mean(), abs=1e-9)


class TestSharedEnsemble:
    @pytest.mark.parametrize("protocol", [Protocol.MABC, Protocol.TDBC])
    def test_fixed_mean_equals_fading_statistics(self, paper_gains, protocol):
        """Adaptive selection and ``fading_sum_rate_statistics`` draw the same
        ensemble from the same RNG state, so a fixed mean is bitwise equal."""
        from repro.simulation.montecarlo import fading_sum_rate_statistics

        report = adaptive_sum_rate(
            paper_gains, power=10.0, n_draws=30, rng=np.random.default_rng(41)
        )
        stats = fading_sum_rate_statistics(
            protocol, paper_gains, 10.0, 30, np.random.default_rng(41)
        )
        assert report.fixed_means[protocol] == stats.mean
