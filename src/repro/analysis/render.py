"""Plain-text table and figure rendering.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep that output consistent.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def format_pct(fraction: float, digits: int = 2) -> str:
    return f"{fraction * 100:.{digits}f}%"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Fixed-width table with a title rule."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(row):
        return "  ".join(
            value.ljust(widths[index]) for index, value in enumerate(row)
        ).rstrip()

    rule = "-" * min(78, sum(widths) + 2 * (len(widths) - 1))
    out = [title, rule, line(headers), rule]
    out.extend(line(row) for row in cells)
    out.append(rule)
    return "\n".join(out)


def render_cdf(
    title: str,
    series: Sequence[Tuple[str, Sequence[float]]],
    probes: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90),
) -> str:
    """Compare CDFs by printing their values at probe quantiles."""
    import numpy as np

    headers = ["series"] + [f"p{int(q * 100)}" for q in probes] + ["n"]
    rows = []
    for name, values in series:
        if len(values):
            quantiles = [
                f"{float(np.percentile(values, q * 100)):.1f}"
                for q in probes
            ]
        else:
            quantiles = ["-"] * len(probes)
        rows.append([name] + quantiles + [len(values)])
    return render_table(title, headers, rows)


def render_series(
    title: str,
    x_label: str,
    columns: Sequence[Tuple[str, Sequence[float]]],
    x_values: Sequence[object],
) -> str:
    """A longitudinal table: one row per x value, one column per series."""
    headers = [x_label] + [name for name, _ in columns]
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for _, values in columns:
            row.append(
                f"{values[index]:.1f}"
                if isinstance(values[index], float) else values[index]
            )
        rows.append(row)
    return render_table(title, headers, rows)
