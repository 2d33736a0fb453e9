"""Figure 9: page-load-time predictions and deployment measurement."""

from conftest import print_block

import pytest

from repro.analysis import format_pct, render_cdf
from repro.core.predictions import predict_plt

#: Paper model medians: ~10% (IP), ~27% (ORIGIN), ~1.5% (CDN-only);
#: measured deployment improvement ~1% ("no worse").
PAPER = {"ip": 0.10, "origin": 0.27, "cdn": 0.015}

CLOUDFLARE_ASN = 13335


def test_figure9_model(benchmark, archives):
    prediction = benchmark.pedantic(
        predict_plt, args=(archives,),
        kwargs={"cdn_asn": CLOUDFLARE_ASN}, rounds=1, iterations=1,
    )
    print_block(render_cdf(
        "Figure 9 (top) -- PLT under the models "
        f"(paper median improvements: IP {format_pct(PAPER['ip'])}, "
        f"ORIGIN {format_pct(PAPER['origin'])}, CDN-only "
        f"{format_pct(PAPER['cdn'])})",
        [
            ("measured", prediction.measured),
            ("ideal IP", prediction.ideal_ip),
            ("ideal ORIGIN", prediction.ideal_origin),
            ("CDN-only ORIGIN", prediction.cdn_origin),
        ],
    ))
    improvements = prediction.median_improvements()
    print("median improvements: "
          + ", ".join(f"{k}={format_pct(v)}"
                      for k, v in improvements.items()))

    # Shape: ORIGIN >= IP >= CDN-only >= 0, nothing gets slower.
    assert improvements["origin"] >= improvements["cdn_origin"] - 1e-9
    assert improvements["origin"] >= 0.0
    assert improvements["ip"] >= 0.0
    assert improvements["cdn_origin"] >= 0.0
    for before, after in zip(prediction.measured,
                             prediction.ideal_origin):
        assert after <= before + 1e-6


def test_figure9_measured(benchmark, deployment):
    """Figure 9 (bottom): the deployed experiment's PLTs vs control --
    the paper found ~1% improvement, i.e. 'no worse'."""
    from repro.deployment import ActiveMeasurement
    from repro.deployment.experiment import Group

    _, experiment = deployment
    experiment.enable_origin_frames()
    active = ActiveMeasurement(experiment, origin_frames=True, seed=41)
    result = benchmark.pedantic(active.run, rounds=1, iterations=1)
    experiment.disable_origin_frames()

    print_block(render_cdf(
        "Figure 9 (bottom) -- measured PLT at the deployment "
        "(paper: ~1% median improvement, 'no worse')",
        [
            ("experiment", result.page_load_times[Group.EXPERIMENT]),
            ("control", result.page_load_times[Group.CONTROL]),
        ],
    ))
    difference = result.plt_difference()
    print(f"experiment vs control median PLT difference: "
          f"{format_pct(difference)}")

    # 'No worse': the experiment group is not meaningfully slower.
    # (Groups contain different sites, so allow sampling spread.)
    assert difference > -0.5
