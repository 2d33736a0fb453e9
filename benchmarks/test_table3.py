"""Table 3: requests by protocol, and secure share."""

from conftest import print_block

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

PAPER = {"h2": 0.7364, "http/1.1": 0.1909, "secure": 0.9853}


def test_table3(benchmark, successes):
    protocols, security = benchmark(
        lambda: CrawlFold.of(successes).table3())
    total = sum(protocols.values())
    table = render_table(
        "Table 3 -- requests by protocol "
        f"(paper: h2 {format_pct(PAPER['h2'])}, "
        f"http/1.1 {format_pct(PAPER['http/1.1'])}, "
        f"secure {format_pct(PAPER['secure'])})",
        ["Protocol", "#Req", "%"],
        [
            (name, count, format_pct(count / total))
            for name, count in sorted(protocols.items(),
                                      key=lambda kv: -kv[1])
        ] + [
            ("secure", security["secure"],
             format_pct(security["secure"] / total)),
            ("insecure", security["insecure"],
             format_pct(security["insecure"] / total)),
        ],
    )
    print_block(table)

    assert protocols["h2"] / total > 0.6
    assert 0.05 < protocols["http/1.1"] / total < 0.35
    insecure = security["insecure"] / total
    assert 0.002 < insecure < 0.04  # paper: 1.47%
