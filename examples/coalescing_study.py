#!/usr/bin/env python
"""The §3-§4 pipeline at laptop scale.

Generates a synthetic web calibrated to the paper's tables, crawls it
with the Chromium model, characterizes the crawl (Tables 1-2, Figure
1), runs the best-case coalescing model (Figure 3), and plans the
least-effort certificate changes (§4.3).

Run:  python examples/coalescing_study.py [site_count]
"""

import sys

import numpy as np

from repro.analysis import format_pct, render_cdf, render_table
from repro.core.certplan import plan_certificates, provider_addition_table
from repro.core.predictions import figure3, headline_reductions
from repro.dataset.characterize import CrawlFold
from repro.dataset.crawler import Crawler
from repro.dataset.generator import DatasetConfig
from repro.dataset.world import build_world


def main():
    site_count = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    print(f"building a {site_count}-site synthetic web ...")
    world = build_world(DatasetConfig(site_count=site_count, seed=2022))
    print(f"crawling {len(world.sites)} sites ...")
    result = Crawler(world).crawl()
    ok = result.successes
    print(f"crawled: {result.success_count}/{result.attempted} "
          "successful page loads "
          f"({format_pct(result.success_count / result.attempted)}; "
          "paper: 63.51%)\n")

    rows = CrawlFold.of(result.archives).table1()
    print(render_table(
        "Table 1 -- crawl summary",
        ["Rank", "Success", "#Reqs", "PLT (ms)", "#DNS", "#TLS"],
        [(r.bucket_label, r.success, f"{r.median_requests:.0f}",
          f"{r.median_plt_ms:.0f}", f"{r.median_dns:.0f}",
          f"{r.median_tls:.0f}") for r in rows],
    ))

    top_ases = CrawlFold.of(ok).table2(top=5)
    print("\n" + render_table(
        "Table 2 -- top destination ASes",
        ["ASN", "Org", "#Req", "%"],
        [(asn, org, count, format_pct(share))
         for asn, org, count, share in top_ases],
    ))

    data = figure3(result.archives)
    print("\n" + render_cdf(
        "Figure 3 -- per-page DNS/TLS counts",
        [("measured DNS", data.measured_dns),
         ("measured TLS", data.measured_tls),
         ("ideal IP", data.ideal_ip),
         ("ideal ORIGIN", data.ideal_origin)],
    ))
    headline = headline_reductions(result.archives)
    print(f"\nideal ORIGIN coalescing would cut TLS handshakes by "
          f"{format_pct(headline['validation_reduction'])} and "
          f"render-blocking DNS by {format_pct(headline['dns_reduction'])}"
          "\n(paper: 68.75% and 64.28%)")

    plan = plan_certificates(hosted.record for hosted in world.sites)
    print(f"\ncertificate plan: {format_pct(plan.unchanged_fraction)} "
          "of certs need no change (paper: 62.41%); "
          f"<=10 additions covers "
          f"{format_pct(plan.fraction_with_changes_at_most(10))} "
          "(paper: 92.66%)")
    for provider, sites, share, hosts in provider_addition_table(plan):
        top = ", ".join(f"{h} ({format_pct(s)})" for h, _, s in hosts[:3])
        print(f"  {provider} ({sites} sites, {format_pct(share)}): "
              f"add {top}")


if __name__ == "__main__":
    main()
