"""Unit tests for the Fig. 3 harness (reduced sweep sizes for speed)."""

import numpy as np
import pytest

from repro.core.capacity import compare_protocols
from repro.core.gaussian import GaussianChannel
from repro.core.protocols import Protocol
from repro.experiments.config import Fig3Config
from repro.experiments.fig3 import (
    Fig3Result,
    fig3_result,
    fig3_shape_checks,
)


@pytest.fixture(scope="module")
def small_config():
    return Fig3Config(
        relay_fractions=(0.2, 0.4, 0.55, 0.7, 0.85),
        symmetric_gains_db=(0.0, 6.0, 12.0, 18.0),
    )


@pytest.fixture(scope="module")
def small_result(small_config):
    return fig3_result(small_config)


class TestSweepStructure:
    def test_row_counts(self, small_result):
        assert len(small_result.placement_rows) == 5
        assert len(small_result.symmetric_rows) == 4

    def test_executor_none_is_the_vectorized_default(self, small_config):
        def tables(executor):
            result = fig3_result(small_config, executor=executor)
            return np.array(
                result.to_rows(result.placement_rows)
                + result.to_rows(result.symmetric_rows)
            )

        assert tables(None).tobytes() == tables("vectorized").tobytes()

    def test_facade_matches_highs_oracle(self, small_config, small_result):
        """Every sweep point equals a per-point HiGHS solve on its channel."""
        rows = small_result.placement_rows + small_result.symmetric_rows
        for row in rows:
            channel = GaussianChannel(gains=row.gains, power=small_config.power)
            oracle = compare_protocols(channel, protocols=small_result.protocols)
            for protocol, point in oracle.sum_rates.items():
                assert row.sum_rates[protocol] == pytest.approx(
                    point.sum_rate, abs=1e-7
                )

    def test_each_row_has_the_papers_protocols(self, small_result):
        from repro.experiments.fig3 import PROTOCOL_ORDER

        assert small_result.protocols == PROTOCOL_ORDER
        for row in small_result.placement_rows:
            assert set(row.sum_rates) == set(PROTOCOL_ORDER)

    def test_placement_gains_normalized(self, small_result):
        for row in small_result.placement_rows:
            assert row.gains.gab == pytest.approx(1.0)

    def test_table_rows_align_with_headers(self, small_result):
        headers = small_result.headers("relay position")
        for row in small_result.placement_rows:
            assert len(row.as_table_row()) == len(headers)
        for table_row in small_result.to_rows(small_result.placement_rows):
            assert len(table_row) == len(headers)

    def test_dt_constant_over_placement(self, small_result):
        """DT ignores the relay, so its rate is flat across the sweep."""
        values = [row.sum_rates[Protocol.DT] for row in small_result.placement_rows]
        assert max(values) - min(values) < 1e-9


class TestProtocolSubsets:
    """Subset runs derive their table columns from the protocol axis."""

    @pytest.fixture(scope="class")
    def subset_result(self, small_config):
        return fig3_result(small_config, protocols=(Protocol.MABC, Protocol.HBC))

    def test_headers_follow_the_subset(self, subset_result):
        assert subset_result.headers("x") == ["x", "MABC", "HBC"]

    def test_headers_need_a_result_instance(self):
        """Columns come from a run's protocol axis; there is no class default."""
        with pytest.raises(TypeError):
            Fig3Result.headers("x")

    def test_rows_align_with_subset_headers(self, subset_result, small_result):
        headers = subset_result.headers("relay position")
        table = subset_result.to_rows(subset_result.placement_rows)
        for row, table_row in zip(subset_result.placement_rows, table):
            assert len(table_row) == len(headers) == 3
            assert len(row.as_table_row()) == 3
            # Column 1 is MABC, column 2 is HBC — cross-check against the
            # full run's values at the same sweep points.
            assert table_row[1] == pytest.approx(
                row.sum_rates[Protocol.MABC], abs=1e-12
            )
            assert table_row[2] == pytest.approx(row.sum_rates[Protocol.HBC], abs=1e-12)
        full = {row.sweep_value: row.sum_rates for row in small_result.placement_rows}
        for row in subset_result.placement_rows:
            assert row.sum_rates[Protocol.HBC] == pytest.approx(
                full[row.sweep_value][Protocol.HBC], abs=1e-9
            )

    def test_shape_checks_restrict_to_available_protocols(self, subset_result):
        checks = fig3_shape_checks(subset_result)
        assert "hbc_dominates" not in checks  # TDBC missing
        assert "mabc_vs_tdbc_crossover" not in checks
        assert "relay_protocols_beat_dt_somewhere" not in checks  # DT missing


class TestPaperClaims:
    def test_all_shape_checks_pass(self, small_result):
        checks = fig3_shape_checks(small_result)
        assert set(checks) == {
            "hbc_dominates",
            "hbc_strictly_better_somewhere",
            "relay_protocols_beat_dt_somewhere",
            "mabc_vs_tdbc_crossover",
        }
        failing = [name for name, ok in checks.items() if not ok]
        assert not failing, f"failed shape checks: {failing}"

    def test_hbc_ge_components_pointwise(self, small_result):
        for row in (
            list(small_result.placement_rows) + list(small_result.symmetric_rows)
        ):
            hbc = row.sum_rates[Protocol.HBC]
            assert hbc >= row.sum_rates[Protocol.MABC] - 1e-7
            assert hbc >= row.sum_rates[Protocol.TDBC] - 1e-7

    def test_winner_helper(self, small_result):
        winners = small_result.best_protocol_per_row(small_result.placement_rows)
        assert len(winners) == 5
        assert all(w in {"DT", "MABC", "TDBC", "HBC"} for w in winners)
        # HBC dominates MABC/TDBC, so the winner is HBC (or a tie resolved
        # to another protocol only if exactly equal; max() picks first max).
        assert "HBC" in winners
