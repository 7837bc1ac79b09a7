"""Tests for the rendering helpers."""

import pytest

from repro.analysis.render import format_bar, format_heatmap, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["name", "x"], [["a", 1.5], ["bb", 10.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out
        assert "10.25" in out

    def test_title_included(self):
        out = format_table(["h"], [["v"]], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_wide_values_stretch_columns(self):
        out = format_table(["x"], [["averylongvalue"]])
        header, sep, row = out.splitlines()
        assert len(header) == len(row)


class TestFormatHeatmap:
    def test_grid_layout(self):
        out = format_heatmap(
            [[0.0, 1.0], [2.0, 3.0]],
            row_labels=["r0", "r1"],
            col_labels=["c0", "c1"],
            fmt="{:.0f}",
        )
        assert "r0" in out and "c1" in out and "3" in out

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_heatmap([[1.0]], ["a", "b"], ["c"])
        with pytest.raises(ValueError):
            format_heatmap([[1.0]], ["a"], ["c", "d"])


class TestFormatBar:
    def test_proportional(self):
        assert format_bar(5.0, 10.0, width=10) == "#####....."

    def test_clamps_at_full(self):
        assert format_bar(20.0, 10.0, width=4) == "####"

    def test_zero(self):
        assert format_bar(0.0, 10.0, width=4) == "...."

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            format_bar(1.0, 0.0)
