"""End-to-end tests of the campaign engine: execution, caching, reuse."""

import numpy as np
import pytest

from repro.campaign import engine
from repro.campaign.cache import CampaignCache
from repro.campaign.engine import evaluate_ensemble, run_campaign
from repro.campaign.executors import MultiprocessExecutor
from repro.campaign.kernel import KERNEL_VERSION
from repro.campaign.spec import CampaignSpec, FadingSpec
from repro.channels.fading import sample_gain_ensemble
from repro.core.capacity import optimal_sum_rate
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.exceptions import InvalidParameterError


@pytest.fixture
def fading_spec(paper_gains):
    return CampaignSpec(
        protocols=(Protocol.MABC, Protocol.TDBC, Protocol.HBC),
        powers_db=(0.0, 10.0),
        gains=(paper_gains,),
        fading=FadingSpec(n_draws=16, seed=5),
    )


class TestRunCampaign:
    def test_result_shape_and_metadata(self, fading_spec):
        result = run_campaign(fading_spec, executor="vectorized")
        assert result.values.shape == fading_spec.grid_shape
        assert result.executor_name == "vectorized"
        assert not result.from_cache
        assert result.shard is None
        assert result.cells_computed == fading_spec.n_units
        assert result.cells_from_cache == 0
        assert np.all(result.values > 0)

    def test_executors_agree_bitwise_on_seeded_ensemble(self, fading_spec):
        serial = run_campaign(fading_spec, executor="serial")
        vectorized = run_campaign(fading_spec, executor="vectorized")
        pooled = run_campaign(fading_spec, executor=MultiprocessExecutor(processes=2))
        assert np.array_equal(serial.values, vectorized.values)
        assert np.array_equal(serial.values, pooled.values)

    def test_chunked_execution_is_bitwise_identical(self, fading_spec):
        whole = run_campaign(fading_spec)
        chunked = run_campaign(fading_spec, chunk_size=7)
        assert np.array_equal(whole.values, chunked.values)

    def test_hbc_dominates_mabc_and_tdbc_per_draw(self, fading_spec):
        result = run_campaign(fading_spec)
        mabc, tdbc, hbc = result.values
        assert np.all(hbc >= mabc - 1e-9)
        assert np.all(hbc >= tdbc - 1e-9)

    def test_values_match_legacy_lp_path(self, fading_spec):
        """The engine reproduces per-draw scipy LP optima to LP tolerance."""
        result = run_campaign(fading_spec)
        draws = fading_spec.sample_gain_draws()
        from repro.channels.gains import LinkGains

        for pi, protocol in enumerate(fading_spec.protocols):
            for wi, power_db in enumerate(fading_spec.powers_db):
                power = 10.0 ** (power_db / 10.0)
                for di in range(4):  # spot-check a few draws
                    gains = LinkGains(*draws[0, di])
                    reference = optimal_sum_rate(
                        protocol, GaussianChannel(gains=gains, power=power)
                    ).sum_rate
                    assert result.values[pi, wi, 0, di] == pytest.approx(
                        reference, abs=1e-7
                    )

    def test_progress_reports_total_units(self, fading_spec):
        ticks = []
        run_campaign(
            fading_spec, progress=lambda done, total: ticks.append((done, total))
        )
        assert ticks[-1] == (fading_spec.n_units, fading_spec.n_units)


class TestCaching:
    def test_repeated_spec_hits_the_cache(self, fading_spec, tmp_path):
        cache = CampaignCache(tmp_path)
        first = run_campaign(fading_spec, cache=cache)
        second = run_campaign(fading_spec, cache=cache)
        assert not first.from_cache
        assert first.cells_computed == fading_spec.n_units
        assert second.from_cache
        assert second.cells_from_cache == fading_spec.n_units
        assert second.cells_computed == 0
        assert np.array_equal(first.values, second.values)

    def test_older_kernel_version_is_recomputed(
        self, fading_spec, tmp_path, monkeypatch
    ):
        """Entries written by kernel version 1 are never served at version 2."""
        assert KERNEL_VERSION == 2
        cache = CampaignCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "KERNEL_VERSION", 1)
            stale = run_campaign(fading_spec, cache=cache, chunk_size=16)
        assert stale.cells_computed == fading_spec.n_units
        current = run_campaign(fading_spec, cache=cache, chunk_size=16)
        assert not current.from_cache
        assert current.cells_from_cache == 0
        assert current.cells_computed == fading_spec.n_units
        assert run_campaign(fading_spec, cache=cache).from_cache

    def test_cache_shared_across_executors(self, fading_spec, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(fading_spec, executor="vectorized", cache=cache)
        hit = run_campaign(fading_spec, executor="serial", cache=cache)
        assert hit.from_cache

    def test_changed_spec_misses(self, fading_spec, tmp_path, paper_gains):
        cache = CampaignCache(tmp_path)
        run_campaign(fading_spec, cache=cache)
        changed = CampaignSpec(
            protocols=fading_spec.protocols,
            powers_db=fading_spec.powers_db,
            gains=(paper_gains,),
            fading=FadingSpec(n_draws=16, seed=6),
        )
        result = run_campaign(changed, cache=cache)
        assert not result.from_cache

    def test_cache_path_argument(self, fading_spec, tmp_path):
        run_campaign(fading_spec, cache=tmp_path / "store")
        hit = run_campaign(fading_spec, cache=tmp_path / "store")
        assert hit.from_cache

    def test_untrusted_executor_never_writes_the_cache(self, fading_spec, tmp_path):
        """Only the bitwise-verified built-ins may populate the store."""

        class ApproximateExecutor:
            name = "approximate"

            def run(self, batches, progress=None):
                return [np.zeros(len(batch)) for batch in batches]

        cache = CampaignCache(tmp_path)
        run_campaign(fading_spec, executor=ApproximateExecutor(), cache=cache)
        result = run_campaign(fading_spec, executor="vectorized", cache=cache)
        assert not result.from_cache
        assert np.all(result.values > 0)

    def test_cache_hit_reports_full_progress(self, fading_spec, tmp_path):
        run_campaign(fading_spec, cache=tmp_path)
        ticks = []
        run_campaign(
            fading_spec,
            cache=tmp_path,
            progress=lambda done, total: ticks.append((done, total)),
        )
        assert ticks == [(fading_spec.n_units, fading_spec.n_units)]


class TestResultAccessors:
    def test_slicing_and_statistics(self, fading_spec):
        result = run_campaign(fading_spec)
        slice_ = result.values_for(Protocol.HBC, 10.0)
        assert slice_.shape == (1, 16)
        assert result.ergodic_mean(Protocol.HBC, 10.0) == pytest.approx(
            float(slice_.mean())
        )
        assert (
            result.outage_rate(Protocol.HBC, 10.0, 0.1)
            <= result.ergodic_mean(Protocol.HBC, 10.0) + 1e-9
        )
        rows = result.summary_rows()
        assert len(rows) == 6
        with pytest.raises(InvalidParameterError):
            result.values_for(Protocol.DT, 10.0)
        with pytest.raises(InvalidParameterError):
            result.values_for(Protocol.HBC, 3.0)
        with pytest.raises(InvalidParameterError):
            result.outage_rate(Protocol.HBC, 10.0, 1.5)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5])
    def test_summary_rows_reject_outage_level_out_of_range(self, fading_spec, epsilon):
        result = run_campaign(fading_spec)
        with pytest.raises(InvalidParameterError):
            result.summary_rows(epsilon=epsilon)


class TestEvaluateEnsemble:
    def test_matches_per_draw_lp(self, paper_gains, rng):
        ensemble = sample_gain_ensemble(paper_gains, 10, rng)
        values = evaluate_ensemble(Protocol.MABC, ensemble, 10.0)
        reference = [
            optimal_sum_rate(
                Protocol.MABC, GaussianChannel(gains=draw, power=10.0)
            ).sum_rate
            for draw in ensemble
        ]
        np.testing.assert_allclose(values, reference, atol=1e-7)

    def test_accepts_plain_arrays(self, paper_gains):
        triple = (paper_gains.gab, paper_gains.gar, paper_gains.gbr)
        values = evaluate_ensemble(Protocol.MABC, [triple, triple], 10.0)
        assert values.shape == (2,)
        assert values[0] == values[1]

    @pytest.mark.parametrize(
        "triple, power",
        [
            ((float("nan"), 1.0, 1.0), 10.0),
            ((1.0, float("inf"), 1.0), 10.0),
            ((1.0, 1.0, 1.0), float("nan")),
            ((1.0, 1.0, 1.0), float("inf")),
        ],
        ids=["nan-gain", "inf-gain", "nan-power", "inf-power"],
    )
    def test_non_finite_inputs_rejected(self, triple, power):
        with pytest.raises(InvalidParameterError, match="finite"):
            evaluate_ensemble(Protocol.HBC, [triple], power)

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidParameterError):
            evaluate_ensemble(Protocol.MABC, [(1.0, 2.0)], 10.0)
