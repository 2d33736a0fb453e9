"""Figure 3: measured vs ideal DNS/TLS count distributions."""

from conftest import print_block

from repro.analysis import format_pct, render_cdf
from repro.core.predictions import figure3

#: Paper medians: DNS 14, TLS 16, ideal IP 13, ideal ORIGIN 5;
#: ORIGIN reduces DNS by ~64% and TLS by ~67%.
PAPER = {"dns": 14, "tls": 16, "ip": 13, "origin": 5,
         "dns_reduction": 0.64, "tls_reduction": 0.67}


def test_figure3(benchmark, archives):
    data = benchmark(figure3, archives)
    print_block(render_cdf(
        "Figure 3 -- per-page DNS/TLS counts "
        f"(paper medians: measured {PAPER['dns']}/{PAPER['tls']}, "
        f"ideal IP {PAPER['ip']}, ideal ORIGIN {PAPER['origin']})",
        [
            ("measured DNS", data.measured_dns),
            ("measured TLS", data.measured_tls),
            ("ideal IP", data.ideal_ip),
            ("ideal ORIGIN", data.ideal_origin),
        ],
    ))
    reductions = data.reduction_vs_measured()
    print("reductions vs measured: "
          + ", ".join(f"{k}={format_pct(v)}"
                      for k, v in reductions.items()))
    stats = data.validation_percentiles()
    print(f"validations p75: {stats['measured_p75']:.0f} -> "
          f"{stats['ideal_p75']:.0f} "
          f"(paper: 30 -> 9); IQR {stats['measured_iqr']:.0f} -> "
          f"{stats['ideal_iqr']:.0f} (paper: 22 -> 6)")

    medians = data.medians()
    assert medians["ideal_origin"] < medians["ideal_ip"] \
        <= medians["measured_tls"]
    assert reductions["origin_tls_reduction"] > 0.45
    assert reductions["origin_dns_reduction"] > 0.25
    assert reductions["ip_dns_reduction"] < \
        reductions["origin_dns_reduction"]
