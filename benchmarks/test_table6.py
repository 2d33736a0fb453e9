"""Table 6: top content types within the top-3 ASes."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold


def test_table6(benchmark, successes):
    table_data = benchmark(lambda: CrawlFold.of(successes).table6())
    rows = []
    for (asn, org), type_rows in table_data.items():
        for content_type, count, share in type_rows:
            rows.append((f"AS {asn} ({org})", content_type, count,
                         format_pct(share)))
    print_block(render_table(
        "Table 6 -- top content types per top-3 AS (paper: javascript "
        "leads for Google/Cloudflare/Amazon)",
        ["AS", "Content type", "#Req", "%"],
        rows,
    ))

    assert len(table_data) == 3
    for (asn, org), type_rows in table_data.items():
        leading_type = type_rows[0][0]
        if org in ("Cloudflare", "Amazon 02"):
            # Table 6: application/javascript leads for both.
            assert "javascript" in leading_type
