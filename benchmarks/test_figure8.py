"""Figure 8: longitudinal third-party TLS connection rates."""

from conftest import print_block

import pytest

from repro.analysis import format_pct, render_series
from repro.deployment import LongitudinalStudy, PassivePipeline

#: Paper: ~50% fewer experiment-group connections during the two-week
#: deployment window; no difference before/after.
PAPER = {"reduction": 0.50}


@pytest.fixture(scope="module")
def rates(deployment):
    _, experiment = deployment
    pipeline = PassivePipeline(experiment, sampling_rate=1.0, seed=3)
    pipeline.attach()
    study = LongitudinalStudy(experiment, pipeline)
    result = study.run(total_days=8, deploy_on=2, deploy_off=6)
    pipeline.detach()
    return result


def test_figure8(benchmark, rates):
    during = benchmark(rates.reduction_during_deployment)
    outside = rates.reduction_outside_deployment()
    window = [
        "ORIGIN ON" if rates.in_window(day) else ""
        for day in rates.days
    ]
    print_block(render_series(
        "Figure 8 -- daily new TLS connections to the third party "
        f"(paper: ~{format_pct(PAPER['reduction'])} reduction during "
        "deployment)",
        "day",
        [
            ("experiment", [float(v) for v in rates.experiment]),
            ("control", [float(v) for v in rates.control]),
            ("window", window),
        ],
        rates.days,
    ))
    print(f"reduction during: {format_pct(during)}; outside: "
          f"{format_pct(outside)}")

    assert during >= 0.3
    assert during > outside
    assert abs(outside) < 0.35
