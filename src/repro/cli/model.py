"""``repro model`` -- the §4 best-case model (Figure 3, headline,
certificate plan)."""

from __future__ import annotations

from repro.analysis import format_pct, render_cdf, render_table
from repro.cli.args import (
    add_crawl_pipeline_options,
    add_dataset_options,
)
from repro.cli.invoke import crawl_pipeline


def print_protocol_rows(result) -> None:
    """Per-protocol request/handshake summary for multi-ALPN crawls."""
    by_protocol = {}
    for archive in result.successes:
        for entry in archive.entries:
            row = by_protocol.setdefault(
                entry.protocol, {"requests": 0, "new_connections": 0,
                                 "handshake_ms": 0.0}
            )
            row["requests"] += 1
            if entry.timings.connect >= 0 or entry.timings.ssl >= 0:
                row["new_connections"] += 1
                row["handshake_ms"] += (
                    max(entry.timings.connect, 0.0)
                    + max(entry.timings.ssl, 0.0)
                )
    total = sum(row["requests"] for row in by_protocol.values()) or 1
    print(render_table(
        "Per-protocol breakdown",
        ["Protocol", "#Req", "%", "#New conns", "Handshake ms (total)"],
        [(protocol, row["requests"],
          format_pct(row["requests"] / total),
          row["new_connections"], f"{row['handshake_ms']:.0f}")
         for protocol, row in sorted(by_protocol.items(),
                                     key=lambda kv: -kv[1]["requests"])],
    ))


def cmd_model(args) -> int:
    from repro.core import figure3, headline_reductions, plan_certificates
    from repro.dataset.generator import PageGenerator

    def render(outcome) -> None:
        result = outcome.result
        data = figure3(result.archives)
        print(render_cdf(
            "Figure 3 -- per-page DNS/TLS counts",
            [("measured DNS", data.measured_dns),
             ("measured TLS", data.measured_tls),
             ("ideal IP", data.ideal_ip),
             ("ideal ORIGIN", data.ideal_origin)],
        ))
        if "h3" in getattr(args, "alpn", "h2"):
            print()
            print_protocol_rows(result)
        headline = headline_reductions(result.archives)
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
