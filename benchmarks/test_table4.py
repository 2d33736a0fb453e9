"""Table 4: top certificate issuers among validated handshakes."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

#: Paper: 16.24% of requests triggered new TLS validations; the top-5
#: distinct issuers cover 59.25% of them.
PAPER_VALIDATION_SHARE = 0.1624


def test_table4(benchmark, successes):
    rows, validations, total = benchmark(
        lambda: CrawlFold.of(successes).table4())
    table = render_table(
        "Table 4 -- top certificate issuers "
        f"(paper: validations = {format_pct(PAPER_VALIDATION_SHARE)} "
        "of requests)",
        ["Issuer", "#Validations", "%"],
        [
            (issuer, count, format_pct(share))
            for issuer, count, share in rows
        ],
    )
    print_block(table)
    print(f"validations: {validations} "
          f"({format_pct(validations / total)} of {total} requests)")

    assert rows
    top5 = sum(share for _, _, share in rows[:5])
    assert top5 > 0.4  # heavy issuer concentration (paper: 59.25%)
    assert 0.05 < validations / total < 0.5
