"""The pre-facade entry points survive as warning, behavior-identical shims."""

import numpy as np
import pytest

from repro.core.protocols import Protocol
from repro.experiments.config import Fig3Config
from repro.experiments.fig3 import fig3_result, run_fig3
from repro.experiments.sweeps import power_sweep, sweep_powers
from repro.simulation.outage_capacity import compute_outage_curve, sample_outage_curve

SMALL_FIG3 = Fig3Config(relay_fractions=(0.3, 0.7), symmetric_gains_db=(0.0, 10.0))


class TestRunFig3Shim:
    def test_warns_and_matches_fig3_result(self):
        with pytest.warns(DeprecationWarning, match="run_fig3 is deprecated"):
            shimmed = run_fig3(SMALL_FIG3)
        fresh = fig3_result(SMALL_FIG3)
        assert shimmed.protocols == fresh.protocols
        for old_row, new_row in zip(shimmed.placement_rows, fresh.placement_rows):
            assert old_row.sum_rates == new_row.sum_rates

    def test_old_keyword_signature_still_accepted(self):
        with pytest.warns(DeprecationWarning):
            result = run_fig3(SMALL_FIG3, executor="serial", cache=None)
        assert len(result.symmetric_rows) == 2


class TestFig3HeadersShim:
    def test_class_level_call_warns_and_assumes_four_protocols(self):
        from repro.experiments.fig3 import Fig3Result

        with pytest.warns(DeprecationWarning, match="Fig3Result.headers"):
            headers = Fig3Result.headers("relay position")
        assert headers == ["relay position", "DT", "MABC", "TDBC", "HBC"]

    def test_instance_call_is_warning_free(self, recwarn):
        result = fig3_result(SMALL_FIG3, protocols=(Protocol.HBC,))
        assert result.headers("x") == ["x", "HBC"]
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations


class TestPowerSweepShim:
    def test_warns_and_matches_sweep_powers(self, paper_gains):
        with pytest.warns(DeprecationWarning, match="power_sweep is deprecated"):
            shimmed = power_sweep(paper_gains, (0.0, 10.0))
        fresh = sweep_powers(paper_gains, (0.0, 10.0))
        for old_row, new_row in zip(shimmed, fresh):
            assert old_row.power_db == new_row.power_db
            assert old_row.sum_rates == new_row.sum_rates

    def test_old_protocol_subset_keyword(self, paper_gains):
        with pytest.warns(DeprecationWarning):
            rows = power_sweep(
                paper_gains, (10.0,), protocols=(Protocol.MABC, Protocol.TDBC)
            )
        assert set(rows[0].sum_rates) == {Protocol.MABC, Protocol.TDBC}


class TestComputeOutageCurveShim:
    def test_warns_and_matches_impl(self, paper_gains):
        with pytest.warns(DeprecationWarning, match="compute_outage_curve"):
            shimmed = compute_outage_curve(
                Protocol.HBC, paper_gains, 10.0, 6, np.random.default_rng(5)
            )
        fresh = sample_outage_curve(
            Protocol.HBC, paper_gains, 10.0, 6, np.random.default_rng(5)
        )
        assert shimmed.samples.tobytes() == fresh.samples.tobytes()
        assert shimmed.rate_at_outage(0.1) == fresh.rate_at_outage(0.1)


class TestNoWarningsOnNewSurface:
    def test_facade_and_impls_are_warning_free(self, paper_gains, recwarn):
        from repro.api import evaluate
        from repro.scenarios import power_sweep_scenario

        sweep_powers(paper_gains, (10.0,), protocols=(Protocol.MABC,))
        evaluate(
            power_sweep_scenario(paper_gains, (10.0,), (Protocol.MABC,)),
            executor="serial",
        )
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations
