"""The paper's §7 headline numbers."""

from conftest import print_block

from repro.analysis import format_pct
from repro.core.predictions import headline_reductions

#: "adding no more than 10 DNS names to 37.59% of the certificates will
#: reduce certificate validations by 68.75%, while reducing the number
#: of render blocking DNS queries by 64.28%."
PAPER = {"changed": 0.3759, "validation_reduction": 0.6875,
         "dns_reduction": 0.6428}


def test_headline(benchmark, archives, plan):
    headline = benchmark.pedantic(
        headline_reductions, args=(archives,),
        rounds=1, iterations=1,
    )
    changed = 1.0 - plan.unchanged_fraction
    at_most_10 = plan.fraction_with_changes_at_most(10)
    print_block(
        "Headline (paper §7): "
        f"certificates changed {format_pct(changed)} "
        f"(paper {format_pct(PAPER['changed'])}); "
        f"<=10 additions covers {format_pct(at_most_10)}; "
        "validation reduction "
        f"{format_pct(headline['validation_reduction'])} "
        f"(paper {format_pct(PAPER['validation_reduction'])}); "
        f"DNS reduction {format_pct(headline['dns_reduction'])} "
        f"(paper {format_pct(PAPER['dns_reduction'])})"
    )

    assert 0.15 <= changed <= 0.60
    assert headline["validation_reduction"] >= 0.45
    assert headline["dns_reduction"] >= 0.25
    assert at_most_10 >= 0.85
