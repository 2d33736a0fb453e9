"""Tests for the plain-text rendering helpers."""

from repro.analysis import (
    format_pct,
    render_cdf,
    render_series,
    render_table,
)


class TestRendering:
    def test_format_pct(self):
        assert format_pct(0.5) == "50.00%"
        assert format_pct(0.123456, digits=1) == "12.3%"

    def test_render_table_aligns_columns(self):
        text = render_table("T", ["a", "long-header"],
                            [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[2]
        # All data rows start at the same column offsets.
        assert lines[4].startswith("x   ")
        assert lines[5].startswith("yyyy")

    def test_render_cdf_probes(self):
        text = render_cdf("C", [("s", [1, 2, 3, 4, 5])])
        assert "p50" in text
        assert "3.0" in text

    def test_render_cdf_empty_series(self):
        text = render_cdf("C", [("empty", [])])
        assert "-" in text

    def test_render_series(self):
        text = render_series("S", "day",
                             [("a", [1.0, 2.0]), ("b", [3.0, 4.0])],
                             [1, 2])
        assert "day" in text
        assert "4.0" in text
