"""Table 8: SAN-size distribution, measured vs ideal."""

from conftest import print_block

from repro.analysis import render_table
from repro.core.certplan import san_distribution_table


def test_table8(benchmark, plan):
    rows = benchmark(san_distribution_table, plan)
    print_block(render_table(
        "Table 8 -- SAN-size values ranked by certificate count "
        "(paper: measured rank-1 value 2; ideal rank-1 value 2 with "
        "-26.86% count)",
        ["Rank", "Measured #SAN", "Count", "Ideal #SAN", "Count",
         "Pct change", "Rank move"],
        [
            (rank, m_value, m_count, i_value, i_count,
             f"{pct:+.1f}%" if pct != float("inf") else "new",
             f"{change:+d}" if change else "=")
            for rank, m_value, m_count, i_value, i_count, pct, change
            in rows
        ],
    ))

    # Paper: the most common measured SAN size is 2 names (3 is the
    # runner-up; small samples can swap them).
    assert rows[0][1] in (2, 3)
    # Counts are ranked descending in both columns.
    measured = [row[2] for row in rows]
    ideal = [row[4] for row in rows]
    assert measured == sorted(measured, reverse=True)
    assert ideal == sorted(ideal, reverse=True)
