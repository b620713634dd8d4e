"""Importance sampling: twisted proposals, exact weights, ESS guard.

The contract under test, in order of appearance:

* ``ImportanceSamplingSpec`` validates its proposal parameters and
  serializes sparsely (defaults omitted — the spec-hash discipline).
* ``cell_twist`` parameterizes the twist per cell from its SNR columns.
* ``NoiseTwist.apply`` computes the *exact* per-phase log likelihood
  ratio of the nominal noise density against the proposal density — we
  recompute both densities by hand from the realized draws.
* ``direction_log_weights`` drops the independent other-direction phase
  factors for factorizing protocols and pools everything for coupled
  relay protocols.
* The identity twist is bitwise-invisible: same draws, unit weights.
* Degenerate proposals trip the ESS guard (cells refuse to resolve)
  and zero-error waves leave the weighted estimator well-defined.
* The weighted FER agrees with vanilla Monte Carlo within tolerance.
"""

import numpy as np
import pytest

from repro.channels.gains import LinkGains
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError
from repro.simulation.convolutional import TEST_CODE
from repro.simulation.crc import CRC8
from repro.simulation.linkcodec import LinkCodec
from repro.simulation.montecarlo import simulate_protocol
from repro.simulation.sampling import (
    DEFAULT_MIN_ESS_FRACTION,
    PHASE_DIRECTION_MASKS,
    ImportanceSamplingSpec,
    NoiseTwist,
    direction_log_weights,
)

FAST_CODEC = LinkCodec(payload_bits=24, code=TEST_CODE, crc=CRC8)
GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)


def run(
    protocol,
    *,
    sampling=None,
    seed=3,
    n_rounds=64,
    gains=GAINS,
    power=10**0.6,
    **kwargs,
):
    return simulate_protocol(
        protocol,
        gains,
        power,
        n_rounds,
        np.random.default_rng(seed),
        codec=FAST_CODEC,
        importance_sampling=sampling,
        **kwargs,
    )


class TestImportanceSamplingSpec:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvalidParameterError, match="noise_scale"):
            ImportanceSamplingSpec(noise_scale=0.0)
        with pytest.raises(InvalidParameterError, match="noise_scale"):
            ImportanceSamplingSpec(noise_scale=-1.2)

    def test_target_snr_needs_inflation(self):
        with pytest.raises(InvalidParameterError, match="target_snr_db"):
            ImportanceSamplingSpec(noise_scale=0.9, target_snr_db=3.0)

    def test_rejects_bad_ess_fraction(self):
        with pytest.raises(InvalidParameterError, match="min_ess_fraction"):
            ImportanceSamplingSpec(noise_scale=1.1, min_ess_fraction=1.0)
        with pytest.raises(InvalidParameterError, match="min_ess_fraction"):
            ImportanceSamplingSpec(noise_scale=1.1, min_ess_fraction=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_scale", float("inf")),
            ("noise_scale", float("nan")),
            ("noise_shift", float("nan")),
            ("noise_shift", float("-inf")),
            ("target_snr_db", float("nan")),
            ("target_snr_db", float("inf")),
        ],
    )
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            ImportanceSamplingSpec(**{"noise_scale": 1.1, field: value})

    def test_to_dict_is_sparse(self):
        assert ImportanceSamplingSpec(noise_scale=1.1).to_dict() == {"noise_scale": 1.1}
        full = ImportanceSamplingSpec(
            noise_scale=1.1,
            noise_shift=0.2,
            target_snr_db=2.0,
            min_ess_fraction=0.05,
        )
        assert full.to_dict() == {
            "noise_scale": 1.1,
            "noise_shift": 0.2,
            "target_snr_db": 2.0,
            "min_ess_fraction": 0.05,
        }

    def test_cell_twist_uniform_without_target(self):
        spec = ImportanceSamplingSpec(noise_scale=1.2, noise_shift=0.1)
        twist = spec.cell_twist(
            np.array([0.1, 1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
        )
        assert twist.scales == pytest.approx([1.2, 1.2])
        assert twist.shifts == pytest.approx([0.1, 0.1])

    def test_cell_twist_calibrates_per_cell(self):
        """Deep fades fall back toward vanilla; clean cells cap out."""
        spec = ImportanceSamplingSpec(noise_scale=1.2, target_snr_db=0.0)
        gab = np.array([1e-4, 1.0, 1e6])
        ones = np.ones(3)
        twist = spec.cell_twist(gab, 1e-6 * ones, 1e-6 * ones, ones)
        scales = np.asarray(twist.scales)
        assert scales[0] == pytest.approx(1.0)  # deep fade: vanilla
        assert scales[1] == pytest.approx(1.0)  # at threshold
        assert scales[2] == pytest.approx(1.2)  # clean: capped inflation


class TestNoiseTwistMath:
    def _manual_log_lr(self, nominal_draws, twisted, std, scales, shifts, signs):
        """log p(x) - log q(x) from the two Gaussian densities, by hand."""
        n_cells = len(scales)
        rows = nominal_draws.shape[0] // n_cells
        per_cell = twisted.reshape(n_cells, rows, *twisted.shape[1:])
        out = np.zeros((n_cells, rows))
        for c in range(n_cells):
            x = per_cell[c, :, :, 0, :]  # the twisted in-phase components
            mean = -shifts[c] * std * signs[c]
            sigma = scales[c] * std
            log_p = -(x**2) / (2 * std**2) - np.log(std)
            log_q = -((x - mean) ** 2) / (2 * sigma**2) - np.log(sigma)
            out[c] = (log_p - log_q).sum(axis=(1, 2))
        return out

    def test_log_lr_matches_gaussian_densities(self):
        rng = np.random.default_rng(5)
        n_cells, rounds, n_listeners, n_symbols = 2, 7, 2, 5
        std = 0.8
        draws = rng.normal(0.0, std, size=(n_cells * rounds, n_listeners, 2, n_symbols))
        nominal = draws.copy()
        signs = np.where(
            rng.normal(size=(n_cells, rounds, n_listeners, n_symbols)) > 0,
            1.0,
            -1.0,
        )
        twist = NoiseTwist(scales=(1.3, 1.0), shifts=(0.25, 0.4))
        twisted, log_lr = twist.apply(
            draws.reshape(n_cells, rounds, n_listeners, 2, n_symbols),
            std,
            signs,
        )
        twisted = twisted.reshape(n_cells * rounds, n_listeners, 2, n_symbols)
        # Quadrature components are never touched.
        np.testing.assert_array_equal(twisted[:, :, 1, :], nominal[:, :, 1, :])
        expected = self._manual_log_lr(
            nominal, twisted, std, (1.3, 1.0), (0.25, 0.4), signs
        )
        np.testing.assert_allclose(log_lr, expected, rtol=1e-10)

    def test_identity_twist_is_a_no_op(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(0.0, 0.5, size=(3, 4, 1, 2, 6))
        nominal = draws.copy()
        twist = NoiseTwist(scales=(1.0, 1.0, 1.0), shifts=(0.0, 0.0, 0.0))
        assert twist.is_identity
        twisted, log_lr = twist.apply(draws, 0.5)
        np.testing.assert_array_equal(twisted, nominal)
        np.testing.assert_array_equal(log_lr, np.zeros((3, 4)))

    def test_shift_needs_signs(self):
        twist = NoiseTwist(scales=(1.0,), shifts=(0.1,))
        draws = np.zeros((1, 2, 1, 2, 3))
        with pytest.raises(InvalidParameterError, match="signs"):
            twist.apply(draws, 1.0)


class TestDirectionLogWeights:
    def test_factorizing_protocols_split_by_direction(self):
        phases = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        w_ab, w_ba = direction_log_weights(Protocol.DT, phases)
        np.testing.assert_array_equal(w_ab, [1.0, 2.0])
        np.testing.assert_array_equal(w_ba, [10.0, 20.0])

    def test_naive4_pools_its_two_relay_phases_per_direction(self):
        phases = [np.array([v]) for v in (1.0, 2.0, 4.0, 8.0)]
        w_ab, w_ba = direction_log_weights(Protocol.NAIVE4, phases)
        assert w_ab == pytest.approx([3.0])
        assert w_ba == pytest.approx([12.0])
        assert set(PHASE_DIRECTION_MASKS) == {Protocol.DT, Protocol.NAIVE4}

    def test_coupled_protocols_share_the_total(self):
        phases = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
        w_ab, w_ba = direction_log_weights(Protocol.TDBC, phases)
        assert w_ab == pytest.approx([7.0])
        assert w_ba == pytest.approx([7.0])

    def test_rejects_missing_phases(self):
        with pytest.raises(InvalidParameterError):
            direction_log_weights(Protocol.DT, [])
        with pytest.raises(InvalidParameterError):
            direction_log_weights(Protocol.NAIVE4, [np.zeros(2)] * 3)


class TestIdentityEndToEnd:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_identity_proposal_is_bitwise_invisible(self, protocol):
        """scale 1, shift 0: same counters as vanilla, unit weights."""
        vanilla = run(protocol)
        biased = run(protocol, sampling=ImportanceSamplingSpec(noise_scale=1.0))
        assert biased.a_to_b == vanilla.a_to_b
        assert biased.b_to_a == vanilla.b_to_a
        assert biased.throughput == vanilla.throughput
        assert biased.relay_failures == vanilla.relay_failures
        counter = biased.sampling
        assert counter is not None
        assert counter.sum_weights == pytest.approx(counter.frames)
        assert counter.max_weight == pytest.approx(1.0)
        assert biased.fer == pytest.approx(vanilla.fer)


class TestEssGuardAndEdgeCases:
    def test_degenerate_proposal_refuses_to_resolve(self):
        """A wild twist collapses ESS; the guard keeps the cell open."""
        degenerate = ImportanceSamplingSpec(noise_scale=4.0, noise_shift=2.0)
        report = run(
            Protocol.DT,
            sampling=degenerate,
            n_rounds=64,
            target_rel_error=0.5,
            max_rounds=256,
        )
        counter = report.sampling
        assert counter.ess_fraction < DEFAULT_MIN_ESS_FRACTION
        assert report.resolved is False
        assert report.n_rounds == 256

    def test_mild_proposal_resolves_where_vanilla_would(self):
        report = run(
            Protocol.DT,
            sampling=ImportanceSamplingSpec(noise_scale=1.05),
            n_rounds=64,
            target_rel_error=0.5,
            max_rounds=4096,
            gains=LinkGains.from_db(-10.0, 0.0, 0.0),
            power=1.0,
        )
        assert report.resolved is True
        assert 0.0 < report.fer < 1.0

    def test_zero_error_waves_stay_well_defined(self):
        """No errors under the proposal: FER 0, infinite rel error."""
        report = run(
            Protocol.DT,
            sampling=ImportanceSamplingSpec(noise_scale=1.01),
            n_rounds=8,
            target_rel_error=0.5,
            max_rounds=16,
            gains=LinkGains.from_db(30.0, 0.0, 0.0),
            power=10.0,
        )
        counter = report.sampling
        assert report.fer == 0.0
        assert counter.weighted_errors == 0.0
        assert counter.rel_std_error == np.inf
        assert report.resolved is False

    def test_requires_the_batched_method(self):
        with pytest.raises(InvalidParameterError, match="batched"):
            run(
                Protocol.DT,
                sampling=ImportanceSamplingSpec(noise_scale=1.1),
                method="reference",
            )


class TestUnbiasedness:
    def test_weighted_fer_tracks_vanilla(self):
        """Moderate-FER cell: IS and vanilla agree within 3 pooled SE."""
        gains = LinkGains.from_db(-9.0, 0.0, 0.0)
        n_rounds = 4096
        vanilla = run(Protocol.DT, gains=gains, power=1.0, n_rounds=n_rounds, seed=21)
        biased = run(
            Protocol.DT,
            gains=gains,
            power=1.0,
            n_rounds=n_rounds,
            seed=22,
            sampling=ImportanceSamplingSpec(noise_scale=1.05, noise_shift=0.1),
        )
        counter = biased.sampling
        n_trials = 2 * n_rounds
        se_vanilla = np.sqrt(vanilla.fer * (1 - vanilla.fer) / n_trials)
        se_biased = counter.rel_std_error * counter.weighted_fer
        gap = abs(counter.weighted_fer - vanilla.fer)
        assert gap <= 3 * np.hypot(se_vanilla, se_biased)
