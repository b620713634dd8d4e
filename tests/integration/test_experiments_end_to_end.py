"""Integration: full experiment registry runs with the paper parameters."""

import pytest

from repro.experiments.runner import EXPERIMENT_IDS, run_experiment


@pytest.fixture(scope="module")
def reports():
    return {eid: run_experiment(eid) for eid in EXPERIMENT_IDS}


class TestRegistryEndToEnd:
    def test_every_registered_experiment_runs(self, reports):
        assert set(reports) == set(EXPERIMENT_IDS)

    def test_every_shape_check_passes(self, reports):
        for eid, report in reports.items():
            failing = [n for n, ok in report.checks.items() if not ok]
            assert not failing, f"{eid} failed: {failing}"

    def test_reports_render_nonempty(self, reports):
        for report in reports.values():
            text = report.render()
            assert len(text) > 200
            assert "[FAIL]" not in text

    def test_fig3_tables_cover_both_sweeps(self, reports):
        titles = [t for t, _h, _r in reports["fig3"].tables]
        assert any("placement" in t for t in titles)
        assert any("symmetric" in t for t in titles)

    def test_fig4_panels_have_all_regions(self, reports):
        for eid in ("fig4a", "fig4b"):
            summary_title, headers, rows = reports[eid].tables[0]
            region_names = {row[0] for row in rows}
            assert region_names == {"DT", "MABC", "TDBC inner", "TDBC outer", "HBC"}

    def test_headline_points_reported_at_high_snr(self, reports):
        titles = [t for t, _h, _r in reports["fig4b"].tables]
        assert any("outside both" in t for t in titles)

    def test_csv_export_all_experiments(self, reports, tmp_path):
        for eid, report in reports.items():
            paths = report.write_csvs(tmp_path / eid)
            assert paths
            for path in paths:
                assert path.exists()
                assert path.stat().st_size > 0
