"""Table 2: top-10 destination ASes by request share."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

#: The paper's top-10 collectively serve 63.68% of requests; the top-3
#: providers ~50%.
PAPER_TOP10_SHARE = 0.6368


def test_table2(benchmark, successes):
    rows = benchmark(lambda: CrawlFold.of(successes).table2())
    table = render_table(
        "Table 2 -- top destination ASes "
        f"(paper: top-10 = {format_pct(PAPER_TOP10_SHARE)})",
        ["Rank", "ASN", "Org", "#Req", "%"],
        [
            (i + 1, asn, org, count, format_pct(share))
            for i, (asn, org, count, share) in enumerate(rows)
        ],
    )
    print_block(table)

    top10_share = sum(share for _, _, _, share in rows)
    orgs = [org for _, org, _, _ in rows]
    assert "Google" in orgs[:3]        # paper rank 1
    assert "Cloudflare" in orgs[:4]    # paper rank 2
    assert top10_share > 0.35          # heavy concentration holds
    total_ases = CrawlFold.of(successes).unique_as_count()
    assert total_ases > 20
