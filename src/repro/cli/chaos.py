"""``repro chaos`` -- fault-injected crawl with blast-radius report.

Arms a declarative ``[[fault]]`` schedule (:mod:`repro.chaos.schedule`)
against the crawl pipeline and reports, per fault, how much was riding
every torn-down connection.  ``--compare-policies`` runs the same
schedule under each coalescing policy -- the robustness cost of the
paper's savings: under coalescing each lost connection takes more
hostnames down with it.
"""

from __future__ import annotations

from repro.browser.retry import DEFAULT_RETRY_POLICY
from repro.cli.args import (
    POLICIES,
    _nonnegative_int,
    add_crawl_pipeline_options,
    add_dataset_options,
    refuse_artifacts,
)
from repro.cli.invoke import chaos_pipeline, crawl_definition
from repro.runtime.console import diag


def _retry_policy(args):
    from repro.browser.retry import RetryPolicy

    return RetryPolicy(
        max_retries=0 if args.no_retry else args.retries,
        backoff_base_ms=args.backoff,
        backoff_multiplier=args.backoff_multiplier,
        jitter_ms=args.jitter,
        retry_connection_loss=not args.no_retry,
        budget_ms=args.budget,
    )


def _load_schedule(path):
    from repro.chaos import ChaosError, load_fault_schedule

    try:
        return load_fault_schedule(path)
    except ChaosError as error:
        diag(f"chaos: {error}")
        raise SystemExit(2)


def _fault_table(report) -> str:
    header = (f"{'fault':20s} {'kind':18s} {'events':>6s} "
              f"{'lost':>5s} {'coal':>5s} {'hosts':>6s} "
              f"{'reqs':>6s} {'users':>5s} {'blast':>6s}")
    lines = [header, "-" * len(header)]
    for tally in report.tallies:
        lines.append(
            f"{tally.name:20s} {tally.kind:18s} {tally.events:6d} "
            f"{tally.connections_lost:5d} {tally.coalesced_lost:5d} "
            f"{tally.hostnames_affected:6d} "
            f"{tally.requests_affected:6d} {tally.users_affected:5d} "
            f"{tally.mean_blast_radius:6.3f}"
        )
    return "\n".join(lines)


def _render(args, outcome) -> None:
    report = outcome.result
    print(f"chaos: crawled {report.pages_attempted} sites with the "
          f"{args.policy} policy under {report.schedule_source}; "
          f"{report.pages_attempted - report.pages_failed} succeeded")
    if report.tallies:
        print()
        print(_fault_table(report))
    print()
    print(f"totals: {report.connections_lost} connections lost "
          f"({report.coalesced_lost} coalesced, "
          f"{report.immature_lost} immature), "
          f"{report.hostnames_affected} hostnames affected, "
          f"mean blast radius {report.mean_blast_radius:.3f}; "
          f"{report.requests_retried} requests retried, "
          f"{report.requests_exhausted} exhausted retries")


def _compare(args, schedule, retry_policy) -> int:
    from repro.chaos import compare_policies
    from repro.dataset.shard import plan_shards

    config, params = crawl_definition(args, args.policy)
    rows = compare_policies(
        plan_shards(config, args.shards or None), params, schedule,
        retry_policy, jobs=args.jobs,
    )
    print(f"chaos: {len(rows)} policies under "
          f"{schedule.source} over {args.sites} sites")
    print()
    header = (f"{'policy':15s} {'conns':>6s} {'lost':>5s} "
              f"{'coal':>5s} {'hosts':>6s} {'blast':>6s} "
              f"{'retried':>8s} {'exhaust':>8s} {'pages':>8s}")
    print(header)
    print("-" * len(header))
    for policy, report in rows:
        print(f"{policy:15s} {report.connections_opened:6d} "
              f"{report.connections_lost:5d} "
              f"{report.coalesced_lost:5d} "
              f"{report.hostnames_affected:6d} "
              f"{report.mean_blast_radius:6.3f} "
              f"{report.requests_retried:8d} "
              f"{report.requests_exhausted:8d} "
              f"{report.pages_attempted - report.pages_failed:4d}/"
              f"{report.pages_attempted:3d}")
    return 0


def cmd_chaos(args) -> int:
    if args.compare_policies:
        refuse_artifacts(args, "chaos", "--compare-policies")
    schedule = _load_schedule(args.schedule)
    retry_policy = _retry_policy(args)
    if args.compare_policies:
        return _compare(args, schedule, retry_policy)
    chaos_pipeline(
        args, schedule, retry_policy,
        render=lambda outcome: _render(args, outcome),
    ).run()
    return 0


def register(sub) -> None:
    chaos = sub.add_parser(
        "chaos",
        help="crawl under a fault schedule, report blast radii",
    )
    add_dataset_options(chaos)
    add_crawl_pipeline_options(chaos)
    chaos.add_argument("--schedule", required=True, metavar="FILE",
                       help="[[fault]] schedule file (TOML subset)")
    chaos.add_argument("--policy", choices=sorted(POLICIES),
                       default="chromium")
    chaos.add_argument("--out", metavar="OUT", default=None,
                       help="write the blast-radius report to OUT "
                            "(canonical JSONL, byte-identical "
                            "across --jobs)")
    chaos.add_argument("--compare-policies", action="store_true",
                       help="run the schedule under every coalescing "
                            "policy and print the robustness-vs-"
                            "savings table")
    retry = DEFAULT_RETRY_POLICY
    chaos.add_argument("--retries", type=_nonnegative_int,
                       default=retry.max_retries,
                       help="retries per request per failure class "
                            "(default %(default)s)")
    chaos.add_argument("--backoff", type=float,
                       default=retry.backoff_base_ms, metavar="MS",
                       help="base backoff before the first retry "
                            "(default %(default)s)")
    chaos.add_argument("--backoff-multiplier", type=float,
                       default=retry.backoff_multiplier,
                       dest="backoff_multiplier", metavar="X",
                       help="backoff growth factor (default "
                            "%(default)s; 1.0 = legacy linear)")
    chaos.add_argument("--jitter", type=float,
                       default=retry.jitter_ms, metavar="MS",
                       help="seeded uniform jitter on each backoff "
                            "(default %(default)s)")
    chaos.add_argument("--budget", type=float,
                       default=retry.budget_ms, metavar="MS",
                       help="per-request retry budget in simulated "
                            "ms (default %(default)s = unlimited)")
    chaos.add_argument("--no-retry", action="store_true",
                       help="disable retries entirely (faults "
                            "surface as failed requests)")
    chaos.set_defaults(func=cmd_chaos)
