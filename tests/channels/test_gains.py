"""Unit tests for repro.channels.gains."""

import pytest

from repro.channels.gains import LinkGains
from repro.exceptions import InvalidParameterError


class TestConstruction:
    def test_positive_gains_accepted(self):
        gains = LinkGains(gab=0.2, gar=1.0, gbr=3.16)
        assert gains.gab == pytest.approx(0.2)

    def test_zero_gain_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinkGains(gab=0.0, gar=1.0, gbr=1.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinkGains(gab=1.0, gar=-1.0, gbr=1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_gain_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            LinkGains(gab=value, gar=1.0, gbr=1.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            LinkGains.from_db(-7.0, 0.0, value)

    def test_from_db_roundtrip(self):
        gains = LinkGains.from_db(-7.0, 0.0, 5.0)
        gab_db, gar_db, gbr_db = gains.to_db()
        assert gab_db == pytest.approx(-7.0)
        assert gar_db == pytest.approx(0.0)
        assert gbr_db == pytest.approx(5.0)


class TestAccessors:
    def test_gain_is_reciprocal(self):
        gains = LinkGains.from_db(-7.0, 0.0, 5.0)
        assert gains.gain("a", "r") == gains.gain("r", "a")
        assert gains.gain("a", "b") == gains.gain("b", "a")
        assert gains.gain("b", "r") == gains.gain("r", "b")

    def test_gain_values(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        assert gains.gain("a", "b") == pytest.approx(0.5)
        assert gains.gain("a", "r") == pytest.approx(1.0)
        assert gains.gain("b", "r") == pytest.approx(2.0)

    def test_unknown_link_rejected(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        with pytest.raises(InvalidParameterError):
            gains.gain("a", "x")
        with pytest.raises(InvalidParameterError):
            gains.gain("a", "a")

    def test_snr_scales_with_power(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        assert gains.snr("a", "r", power=10.0) == pytest.approx(10.0)
        assert gains.snr("b", "r", power=10.0) == pytest.approx(20.0)

    def test_snr_rejects_negative_power(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        with pytest.raises(InvalidParameterError):
            gains.snr("a", "r", power=-1.0)


class TestTransforms:
    def test_paper_regime_detection(self):
        assert LinkGains.from_db(-7.0, 0.0, 5.0).is_paper_regime()
        assert not LinkGains.from_db(5.0, 0.0, -7.0).is_paper_regime()

    def test_swapped_terminals(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        swapped = gains.swapped_terminals()
        assert swapped.gar == pytest.approx(2.0)
        assert swapped.gbr == pytest.approx(1.0)
        assert swapped.gab == pytest.approx(0.5)

    def test_swap_is_involution(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0)
        assert gains.swapped_terminals().swapped_terminals() == gains

    def test_scaled(self):
        gains = LinkGains(gab=0.5, gar=1.0, gbr=2.0).scaled(2.0)
        assert gains.gab == pytest.approx(1.0)
        assert gains.gar == pytest.approx(2.0)
        assert gains.gbr == pytest.approx(4.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            LinkGains(gab=0.5, gar=1.0, gbr=2.0).scaled(0.0)
