"""Table 5: requests by content type."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

PAPER_TOP = [
    ("application/javascript", 0.1426),
    ("image/jpeg", 0.1302),
    ("image/png", 0.1067),
    ("text/html", 0.1032),
]


def test_table5(benchmark, successes):
    rows = benchmark(lambda: CrawlFold.of(successes).table5())
    table = render_table(
        "Table 5 -- requests by content type (paper top-4: "
        + ", ".join(f"{n} {format_pct(s)}" for n, s in PAPER_TOP) + ")",
        ["Content type", "#Req", "%"],
        [(name, count, format_pct(share)) for name, count, share in rows],
    )
    print_block(table)

    top_types = [name for name, _, _ in rows[:6]]
    assert "application/javascript" in top_types
    assert "image/jpeg" in top_types
    assert "text/html" in top_types
    shares = [share for _, _, share in rows]
    assert shares == sorted(shares, reverse=True)
