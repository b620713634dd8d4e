"""Unit tests for repro.experiments.ascii_plot."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.ascii_plot import ascii_plot


class TestAsciiPlot:
    def test_renders_markers_and_legend(self):
        text = ascii_plot({"line": [(0, 0), (1, 1)]}, width=20, height=8)
        assert "o = line" in text
        assert "o" in text

    def test_multiple_series_distinct_markers(self):
        text = ascii_plot(
            {"first": [(0, 0), (1, 1)], "second": [(0, 1), (1, 0)]},
            width=20,
            height=8,
        )
        assert "o = first" in text
        assert "x = second" in text

    def test_title_and_labels(self):
        text = ascii_plot({"s": [(0, 1)]}, title="T", x_label="xx", y_label="yy")
        assert text.splitlines()[0] == "T"
        assert "xx" in text
        assert "yy" in text

    def test_axis_ranges_include_zero(self):
        text = ascii_plot({"s": [(5.0, 5.0), (6.0, 7.0)]})
        assert "[0.000" in text  # x range extends to zero

    def test_empty_series_rejected(self):
        with pytest.raises(InvalidParameterError):
            ascii_plot({})

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            ascii_plot({"s": [(1, 2, 3)]})
        with pytest.raises(InvalidParameterError):
            ascii_plot({"s": np.zeros((0, 2))})

    def test_too_small_canvas_rejected(self):
        with pytest.raises(InvalidParameterError):
            ascii_plot({"s": [(0, 0)]}, width=2, height=2)

    def test_degenerate_single_point(self):
        text = ascii_plot({"s": [(1.0, 1.0)]}, width=10, height=5)
        assert "o" in text
