"""``repro model`` -- the §4 best-case model (Figure 3, headline,
certificate plan)."""

from __future__ import annotations

from repro.analysis import format_pct, render_cdf, render_table
from repro.cli.args import (
    add_crawl_pipeline_options,
    add_dataset_options,
)
from repro.cli.invoke import crawl_pipeline


def print_protocol_rows(fold) -> None:
    """Per-protocol request/handshake summary for multi-ALPN crawls,
    from the fold's rows (:attr:`CrawlFold.protocol_rows
    <repro.dataset.characterize.CrawlFold.protocol_rows>`)."""
    rows = fold.protocol_rows
    total = sum(requests for requests, _, _ in rows.values()) or 1
    print(render_table(
        "Per-protocol breakdown",
        ["Protocol", "#Req", "%", "#New conns", "Handshake ms (total)"],
        [(protocol, requests, format_pct(requests / total),
          new_connections, f"{handshake_ms:.0f}")
         for protocol, (requests, new_connections, handshake_ms)
         in sorted(rows.items(), key=lambda kv: -kv[1][0])],
    ))


def cmd_model(args) -> int:
    from repro.core.certplan import plan_certificates
    from repro.dataset.generator import PageGenerator

    def render(outcome) -> None:
        fold = outcome.result
        data = fold.figure3()
        print(render_cdf(
            "Figure 3 -- per-page DNS/TLS counts",
            [("measured DNS", data.measured_dns),
             ("measured TLS", data.measured_tls),
             ("ideal IP", data.ideal_ip),
             ("ideal ORIGIN", data.ideal_origin)],
        ))
        if "h3" in getattr(args, "alpn", "h2"):
            print()
            print_protocol_rows(fold)
        headline = data.headline_reductions()
        print(f"\nheadline: validation reduction "
              f"{format_pct(headline['validation_reduction'])}, "
              f"DNS reduction {format_pct(headline['dns_reduction'])} "
              "(paper: 68.75% / 64.28%)")
        config = outcome.config
        plan = plan_certificates(
            map(PageGenerator(config).generate, config.tranco()))
        print(f"certificates needing no change: "
              f"{format_pct(plan.unchanged_fraction)} (paper: 62.41%); "
              f"<=10 additions covers "
              f"{format_pct(plan.fraction_with_changes_at_most(10))}")

    crawl_pipeline(args, "chromium", render=render).run()
    return 0


def register(sub) -> None:
    model = sub.add_parser("model", help="run the §4 model")
    add_dataset_options(model)
    add_crawl_pipeline_options(model)
    model.set_defaults(func=cmd_model)
