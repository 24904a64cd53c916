"""ASCII chart rendering (``examples/ascii_chart.py``, the examples' helper)."""

import importlib.util
from pathlib import Path

import pytest

from repro.util.errors import ConfigurationError

_PATH = Path(__file__).resolve().parents[1] / "examples" / "ascii_chart.py"
_SPEC = importlib.util.spec_from_file_location("ascii_chart", _PATH)
ascii_chart = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ascii_chart)
bar_chart, sparkline = ascii_chart.bar_chart, ascii_chart.sparkline


class TestBarChart:
    def test_scales_to_width(self):
        out = bar_chart([("a", 2.0), ("b", 4.0)], width=4)
        lines = out.splitlines()
        assert lines[0].count("█") == 2
        assert lines[1].count("█") == 4

    def test_labels_aligned(self):
        out = bar_chart([("short", 1.0), ("a-long-label", 2.0)], width=10)
        bars = [line.index("|") for line in out.splitlines()]
        assert len(set(bars)) == 1

    def test_values_rendered(self):
        out = bar_chart([("x", 5248.0)], width=5, unit=" s")
        assert "5,248 s" in out

    def test_zero_span_full_bars(self):
        out = bar_chart([("a", 3.0), ("b", 3.0)], width=6)
        for line in out.splitlines():
            assert line.count("█") == 6

    def test_min_max_scaling(self):
        out = bar_chart([("a", 100.0), ("b", 101.0)], width=10, zero_based=False)
        lines = out.splitlines()
        assert lines[0].count("█") < lines[1].count("█")

    def test_nonzero_gets_visible_bar(self):
        out = bar_chart([("tiny", 0.001), ("big", 1000.0)], width=10)
        assert out.splitlines()[0].count("█") >= 1

    def test_zero_value_no_bar(self):
        out = bar_chart([("none", 0.0), ("big", 10.0)], width=10)
        assert out.splitlines()[0].count("█") == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart([])
        with pytest.raises(ConfigurationError):
            bar_chart([("a", 1.0)], width=0)
        with pytest.raises(ConfigurationError):
            bar_chart([("a", float("nan"))])


class TestSparkline:
    def test_profile(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_extremes(self):
        s = sparkline([0, 100])
        assert s[0] == "▁"
        assert s[1] == "█"

    def test_length_preserved(self):
        assert len(sparkline(range(17))) == 17

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sparkline([])
        with pytest.raises(ConfigurationError):
            sparkline([float("inf")])
