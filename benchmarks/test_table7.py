"""Table 7: top-10 subresource hostnames."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

#: Paper: the top-10 hostnames draw 12.5% of all requests, led by
#: fonts.gstatic.com (2.23%).
PAPER_TOP10_SHARE = 0.125


def test_table7(benchmark, successes):
    rows = benchmark(lambda: CrawlFold.of(successes).table7())
    print_block(render_table(
        "Table 7 -- top subresource hostnames (paper: top-10 = "
        f"{format_pct(PAPER_TOP10_SHARE)} of requests)",
        ["Hostname", "#Req", "%"],
        [(name, count, format_pct(share)) for name, count, share in rows],
    ))

    hostnames = [name for name, _, _ in rows]
    google_family = [
        name for name in hostnames
        if "google" in name or "gstatic" in name or "doubleclick" in name
    ]
    assert len(google_family) >= 3  # Google hosts dominate Table 7
    top10_share = sum(share for _, _, share in rows)
    assert 0.03 < top10_share < 0.5
