"""Unit tests for the experiment registry and report rendering."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.config import Fig3Config, Fig4Config
from repro.experiments.fig3 import fig3_result
from repro.experiments.fig4 import run_fig4
from repro.experiments.runner import (
    EXPERIMENT_IDS,
    ExperimentReport,
    fig3_report,
    fig4_report,
    run_experiment,
)


@pytest.fixture(scope="module")
def small_fig3_report():
    config = Fig3Config(
        relay_fractions=(0.3, 0.55, 0.8), symmetric_gains_db=(0.0, 10.0, 20.0)
    )
    return fig3_report(fig3_result(config))


@pytest.fixture(scope="module")
def small_fig4_reports():
    low = run_fig4(Fig4Config(power_db=0.0, boundary_points=9))
    high = run_fig4(Fig4Config(power_db=10.0, boundary_points=9))
    report_low = fig4_report(
        Fig4Config(power_db=0.0, boundary_points=9), "fig4a", result=low, companion=high
    )
    report_high = fig4_report(
        Fig4Config(power_db=10.0, boundary_points=9),
        "fig4b",
        result=high,
        companion=low,
    )
    return report_low, report_high


class TestFig3Report:
    def test_render_contains_tables_and_checks(self, small_fig3_report):
        text = small_fig3_report.render()
        assert "fig3" in text
        assert "placement sweep" in text
        assert "symmetric sweep" in text
        assert "[PASS]" in text

    def test_all_checks_pass(self, small_fig3_report):
        assert small_fig3_report.all_checks_pass()

    def test_csv_export(self, small_fig3_report, tmp_path):
        paths = small_fig3_report.write_csvs(tmp_path)
        assert len(paths) == 2
        assert all(p.exists() for p in paths)


class TestFig4Report:
    def test_render_mentions_regions(self, small_fig4_reports):
        low, high = small_fig4_reports
        assert "TDBC outer" in high.render()
        assert "fig4a" in low.render()

    def test_headline_table_present_at_high_snr(self, small_fig4_reports):
        _low, high = small_fig4_reports
        titles = [title for title, _h, _r in high.tables]
        assert any("outside both" in t for t in titles)

    def test_checks_pass_both_panels(self, small_fig4_reports):
        for report in small_fig4_reports:
            assert report.all_checks_pass(), report.checks


class TestRegistry:
    def test_experiment_ids(self):
        assert set(EXPERIMENT_IDS) == {"fig3", "fig4a", "fig4b"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("fig9")

    def test_report_is_dataclass_contract(self, small_fig3_report):
        assert isinstance(small_fig3_report, ExperimentReport)
        assert small_fig3_report.experiment_id == "fig3"
        assert small_fig3_report.tables
        assert small_fig3_report.plots
