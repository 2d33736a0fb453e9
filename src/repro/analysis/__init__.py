"""Plain-text rendering (tables, CDFs, waterfalls) for the CLI and examples."""

from repro.analysis.render import (
    render_table,
    render_cdf,
    render_series,
    format_pct,
)
from repro.analysis.waterfall import render_waterfall

__all__ = [
    "render_table",
    "render_cdf",
    "render_series",
    "format_pct",
    "render_waterfall",
]
