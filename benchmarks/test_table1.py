"""Table 1: crawl summary per popularity bucket."""

from conftest import print_block

from repro.analysis import render_table
from repro.dataset.characterize import CrawlFold

PAPER_TOTAL = {
    "success": 315_796, "requests": 81, "plt": 5746.0,
    "dns": 14, "tls": 16,
}


def test_table1(benchmark, archives):
    rows = benchmark(lambda: CrawlFold.of(archives).table1())
    table = render_table(
        "Table 1 -- crawl summary by rank bucket (paper total row: "
        f"#reqs {PAPER_TOTAL['requests']}, PLT {PAPER_TOTAL['plt']}ms, "
        f"#DNS {PAPER_TOTAL['dns']}, #TLS {PAPER_TOTAL['tls']})",
        ["Rank", "Attempted", "Success", "#Reqs", "PLT (ms)", "#DNS",
         "#TLS"],
        [
            (row.bucket_label, row.attempted, row.success,
             f"{row.median_requests:.0f}", f"{row.median_plt_ms:.0f}",
             f"{row.median_dns:.0f}", f"{row.median_tls:.0f}")
            for row in rows
        ],
    )
    print_block(table)

    total = rows[-1]
    # Shape: success rate ~63.5%, medians in the paper's ballpark.
    assert 0.5 <= total.success / total.attempted <= 0.8
    assert 50 <= total.median_requests <= 130
    assert 8 <= total.median_dns <= 22
    assert total.median_tls >= total.median_dns
