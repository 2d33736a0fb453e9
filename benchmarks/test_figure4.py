"""Figure 4: SAN-name counts, existing vs ideal certificates."""

from conftest import print_block

from repro.analysis import render_cdf

#: Paper: among changed SANs the median shifts 2 -> 3; p75 3 -> 7.
PAPER = {"median_before": 2, "median_after": 3}


def test_figure4(benchmark, plan):
    existing = benchmark(plan.existing_san_counts)
    ideal = plan.ideal_san_counts()
    print_block(render_cdf(
        "Figure 4 -- DNS names in certificate SANs "
        f"(paper: changed certs shift {PAPER['median_before']} -> "
        f"{PAPER['median_after']} at the median)",
        [("existing", existing), ("ideal", ideal)],
    ))
    before, after = plan.median_san_shift()
    print(f"median among changed certs: {before:.0f} -> {after:.0f}")

    assert after > before
    assert max(ideal) >= max(existing)
    # Zero-SAN sites exist at x=0 (paper: ~3% of sites).
    assert any(count == 0 for count in existing)
