"""``repro traffic`` -- population-scale traffic simulation with
edge load accounting."""

from __future__ import annotations

from repro.analysis import format_pct, render_table
from repro.cli.args import (
    _nonnegative_int,
    _positive_int,
    add_ledger_options,
    refuse_artifacts,
)
from repro.cli.invoke import traffic_pipeline
from repro.runtime.console import diag as _diag


def print_traffic_summary(aggregate) -> None:
    totals = aggregate.totals
    completed = aggregate.completed
    plt = (
        sum(t.plt_total_ms for t in aggregate.cohorts.values())
        / completed if completed else 0.0
    )
    print(
        f"simulated {aggregate.users} users, {aggregate.visits} visits "
        f"({completed} completed, {aggregate.failed} failed) over "
        f"{aggregate.duration_ms / 1000:.0f}s"
    )
    print(
        f"edge load: {totals.connections} connections "
        f"(peak {totals.peak_concurrent} concurrent), "
        f"{totals.handshakes} handshakes "
        f"({format_pct(totals.resumption_rate)} resumed), "
        f"{totals.requests} requests "
        f"({format_pct(totals.coalesced_share)} coalesced), "
        f"{totals.goaways} overload GOAWAYs, "
        f"{aggregate.retries} client retries"
    )
    print(f"client: {aggregate.dns_queries} DNS queries, "
          f"mean PLT {plt:.0f} ms")


def print_traffic_tables(aggregate) -> None:
    print()
    print(render_table(
        "Per-cohort outcomes",
        ["Cohort", "Users", "Visits", "Revisits", "OK", "Failed",
         "Cached", "Mean PLT ms"],
        [(name, tally.users, tally.visits, tally.revisits,
          tally.completed, tally.failed, tally.cached_responses,
          f"{tally.mean_plt_ms:.0f}")
         for name, tally in sorted(aggregate.cohorts.items())],
    ))
    print()
    print(render_table(
        "Edge load by group",
        ["Edge", "Conns", "Peak", "Handshakes", "Resumed", "#Req",
         "Coalesced", "GOAWAYs"],
        [(name, c.connections, c.peak_concurrent, c.handshakes,
          format_pct(c.resumption_rate), c.requests,
          format_pct(c.coalesced_share), c.goaways)
         for name, c in sorted(aggregate.edges.items())
         if c.connections or c.requests],
    ))
    series = aggregate.coalesced_share_series()
    if series:
        print()
        print(render_table(
            "Coalesced-request share over time (Figure 8-style)",
            ["t (s)", "Coalesced", "#Req"],
            [(f"{start / 1000:.0f}", format_pct(share), requests)
             for start, share, requests in series],
        ))


def cmd_traffic(args) -> int:
    from repro.traffic import (
        ScenarioConfig,
        run_what_if,
        scenario_for_policy,
        what_if_rows,
    )

    base = ScenarioConfig(
        users=args.users,
        site_count=args.sites,
        seed=args.seed,
        duration_ms=args.duration * 1000.0,
        mean_visits_per_user=args.mean_visits,
        bucket_ms=args.bucket * 1000.0,
        edge_capacity=args.edge_capacity,
        goaway_retry_limit=args.retry_limit,
    )
    if args.what_if:
        refuse_artifacts(args, "traffic", "--what-if")
        _diag(f"traffic: what-if sweep over {args.users} users, "
              f"{args.sites} sites")
        results = run_what_if(
            base, shard_count=args.shards or None, jobs=args.jobs,
            progress=lambda policy, done, total:
                _diag(f"{policy}: shard {done}/{total}"),
        )
        headers, rows = what_if_rows(results)
        print(render_table(
            "What-if: edge load under coalescing policies",
            headers, rows,
        ))
        return 0

    scenario = scenario_for_policy(base, args.scenario)
    _diag(f"traffic: {args.users} users over {args.sites} sites "
          f"({args.scenario} scenario)")

    def render(outcome) -> None:
        print_traffic_summary(outcome.result)
        print_traffic_tables(outcome.result)

    traffic_pipeline(args, scenario, render=render).run()
    return 0


def register(sub) -> None:
    traffic = sub.add_parser(
        "traffic",
        help="population-scale traffic simulation with edge load "
             "accounting",
    )
    traffic.add_argument("--users", type=_positive_int, default=1000,
                         help="population size (default 1000)")
    traffic.add_argument("--sites", type=_positive_int, default=40,
                         help="sites in the simulated web (default 40)")
    traffic.add_argument("--seed", type=int, default=2022)
    traffic.add_argument("--duration", type=float, default=60.0,
                         help="scenario window in simulated seconds "
                              "(default 60)")
    traffic.add_argument("--mean-visits", type=float, default=2.0,
                         help="mean page visits per user; revisits "
                              "arrive with warm caches and TLS "
                              "tickets (default 2.0)")
    traffic.add_argument("--bucket", type=float, default=5.0,
                         help="time-series bucket in seconds "
                              "(default 5)")
    traffic.add_argument("--shards", type=_nonnegative_int, default=0,
                         help="user-shard layout (default 0 = one "
                              "shard per ~500 users; part of the "
                              "experiment definition)")
    traffic.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes (default 1; does not "
                              "change results)")
    traffic.add_argument("--scenario", choices=("baseline", "origin",
                                                "ideal-san"),
                         default="baseline",
                         help="cohort mix + deployment switches "
                              "(default baseline)")
    traffic.add_argument("--what-if", action="store_true",
                         help="run baseline, origin, and ideal-san "
                              "over the same population and print the "
                              "comparison table")
    traffic.add_argument("--edge-capacity", type=_positive_int,
                         default=None,
                         help="fleet-wide concurrent-connection limit "
                              "per CDN edge; hitting it refuses "
                              "connections with GOAWAY (default "
                              "unlimited)")
    traffic.add_argument("--retry-limit", type=_nonnegative_int,
                         default=2,
                         help="client re-dials after an overload "
                              "GOAWAY (default 2)")
    traffic.add_argument("--out", metavar="OUT", default=None,
                         help="write the merged aggregate to OUT "
                              "(canonical JSONL, byte-identical "
                              "across --jobs)")
    traffic.add_argument("--audit", metavar="OUT", default=None,
                         help="collect decision auditing and write "
                              "the merged log to OUT (JSONL)")
    traffic.add_argument("--trace", metavar="OUT", default=None,
                         help="collect telemetry spans and write the "
                              "merged trace to OUT: Chrome "
                              "trace_event JSON, or span JSONL when "
                              "OUT ends in .jsonl")
    traffic.add_argument("--metrics", action="store_true",
                         help="print the unified metrics summary "
                              "after the run")
    add_ledger_options(traffic)
    traffic.set_defaults(func=cmd_traffic)
