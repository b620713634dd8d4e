"""Arrival-time generators: shapes, reproducibility, and validation."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.traffic import ARRIVAL_KINDS, arrival_times


class TestPeriodic:
    def test_rate_one_centers_one_arrival_per_slot(self):
        times = arrival_times("periodic", 1.0, 4.0, rng=None)
        assert times == (0.5, 1.5, 2.5, 3.5)

    def test_needs_no_rng(self):
        assert arrival_times("periodic", 0.5, 8.0, rng=None) == (1.0, 3.0, 5.0, 7.0)


class TestPoisson:
    def test_reproducible_from_the_stream(self):
        a = arrival_times("poisson", 0.7, 50.0, np.random.default_rng(3))
        b = arrival_times("poisson", 0.7, 50.0, np.random.default_rng(3))
        assert a == b

    def test_rate_sets_the_mean_count(self):
        rng = np.random.default_rng(11)
        counts = [len(arrival_times("poisson", 0.5, 200.0, rng)) for _ in range(20)]
        assert 80 <= np.mean(counts) <= 120

    def test_times_are_increasing_and_inside_the_horizon(self):
        times = arrival_times("poisson", 1.5, 30.0, np.random.default_rng(5))
        assert all(t < 30.0 for t in times)
        assert list(times) == sorted(times)


class TestBursty:
    def test_arrivals_come_in_full_bursts(self):
        times = arrival_times(
            "bursty", 1.0, 100.0, np.random.default_rng(7), burst_size=4
        )
        assert len(times) % 4 == 0
        for start in range(0, len(times), 4):
            burst = times[start : start + 4]
            assert len(set(burst)) == 1

    def test_burst_size_one_matches_poisson_statistics(self):
        times = arrival_times(
            "bursty", 0.8, 100.0, np.random.default_rng(9), burst_size=1
        )
        assert len(set(times)) == len(times)


class TestValidation:
    def test_kind_registry_is_exported(self):
        assert ARRIVAL_KINDS == ("poisson", "periodic", "bursty")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            arrival_times("fractal", 1.0, 10.0, np.random.default_rng(0))

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(InvalidParameterError):
            arrival_times("poisson", rate, 10.0, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_nonfinite_rate_rejected(self, kind, rate):
        """NaN would yield no arrivals; inf, zero gaps that never end."""
        with pytest.raises(InvalidParameterError):
            arrival_times(kind, rate, 10.0, np.random.default_rng(0))

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_nonfinite_horizon_rejected(self, horizon):
        with pytest.raises(InvalidParameterError):
            arrival_times("poisson", 1.0, horizon, np.random.default_rng(0))

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidParameterError):
            arrival_times("poisson", 1.0, 0.0, np.random.default_rng(0))

    def test_bad_burst_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            arrival_times("bursty", 1.0, 10.0, np.random.default_rng(0), burst_size=0)
