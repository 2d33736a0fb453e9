"""Figure 5: ranked tail distribution of SAN sizes before/after."""

from conftest import print_block

from repro.analysis import format_pct, render_table

#: Paper: 62.41% of certs unchanged; <=10 changes covers 92.66%; sites
#: with >250 SANs grow 230 -> 529 (+130%).
PAPER = {"unchanged": 0.6241, "at_most_10": 0.9266}


def test_figure5(benchmark, plan):
    series = benchmark(plan.figure5_series)
    probe_ranks = [0, 1, 4, 9, 49, len(series["existing"]) - 1]
    rows = [
        (rank + 1, series["existing"][rank], series["changes"][rank],
         series["ideal"][rank])
        for rank in probe_ranks if rank < len(series["existing"])
    ]
    print_block(render_table(
        "Figure 5 -- sites ranked by existing SAN size "
        f"(paper: {format_pct(PAPER['unchanged'])} unchanged, "
        f"<=10 changes covers {format_pct(PAPER['at_most_10'])})",
        ["Rank", "Existing SAN", "Changes", "Ideal SAN (ranked)"],
        rows,
    ))
    unchanged = plan.unchanged_fraction
    at_most_10 = plan.fraction_with_changes_at_most(10)
    over_250 = plan.sites_with_san_over(250)
    print(f"unchanged: {format_pct(unchanged)}; <=10 changes: "
          f"{format_pct(at_most_10)}; >250 SANs: "
          f"{over_250[0]} -> {over_250[1]}; largest ideal SAN: "
          f"{plan.largest_ideal_san()}")

    assert 0.4 <= unchanged <= 0.85
    assert at_most_10 >= 0.85
    assert over_250[1] >= over_250[0]
