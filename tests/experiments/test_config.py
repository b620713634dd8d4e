"""Unit tests for repro.experiments.config."""

import pytest

from repro.experiments.config import FIG3_DEFAULT, FIG4_P0, FIG4_P10, Fig4Config


class TestFig3Config:
    def test_paper_parameters(self):
        assert FIG3_DEFAULT.power_db == 15.0
        assert FIG3_DEFAULT.gab_db == 0.0

    def test_power_linear(self):
        assert FIG3_DEFAULT.power == pytest.approx(10**1.5)

    def test_sweeps_nonempty(self):
        assert len(FIG3_DEFAULT.relay_fractions) > 5
        assert len(FIG3_DEFAULT.symmetric_gains_db) > 5

    def test_placement_fractions_in_open_interval(self):
        assert all(0 < f < 1 for f in FIG3_DEFAULT.relay_fractions)


class TestFig4Config:
    def test_panel_powers(self):
        assert FIG4_P0.power_db == 0.0
        assert FIG4_P10.power_db == 10.0

    def test_gain_triple_reading(self):
        """The OCR reading must satisfy the paper regime G_ab<=G_ar<=G_br."""
        channel = FIG4_P10.channel()
        assert channel.gains.is_paper_regime()
        gab_db, gar_db, gbr_db = channel.gains.to_db()
        assert gab_db == pytest.approx(-7.0)
        assert gar_db == pytest.approx(0.0)
        assert gbr_db == pytest.approx(5.0)

    def test_channel_power(self):
        assert FIG4_P0.channel().power == pytest.approx(1.0)
        assert FIG4_P10.channel().power == pytest.approx(10.0)

    def test_custom_panel(self):
        config = Fig4Config(power_db=5.0, boundary_points=9)
        assert config.channel().power == pytest.approx(10**0.5)
        assert config.boundary_points == 9
