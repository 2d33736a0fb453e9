"""Figure 1: distribution of unique ASes needed per page."""

from conftest import print_block

import numpy as np
import pytest

from repro.analysis import format_pct, render_table
from repro.dataset.characterize import CrawlFold

#: Paper: 6.5% of pages use a single AS; the largest bin is 2 ASes
#: (14%); 50% of pages load within 6 ASes.
PAPER = {"single_as": 0.065, "median_ases": 6}


def test_figure1(benchmark, successes):
    data = benchmark(lambda: CrawlFold.of(successes).figure1())
    rows = [
        (count, format_pct(fraction), format_pct(data.cdf_at(count)))
        for count, fraction in list(data.histogram.items())[:15]
    ]
    print_block(render_table(
        "Figure 1 -- unique ASes per page "
        f"(paper: {format_pct(PAPER['single_as'])} single-AS, "
        f"50% within {PAPER['median_ases']} ASes)",
        ["#ASes", "Fraction", "CDF"],
        rows,
    ))

    median_ases = float(np.median(data.as_counts))
    assert 3 <= median_ases <= 12
    # Most pages need only a handful of ASes (high colocation).
    assert data.cdf_at(10) > 0.6
    assert data.cdf[-1][1] == pytest.approx(1.0)
