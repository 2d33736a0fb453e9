"""``repro crawl`` -- crawl a synthetic web, print Tables 1-7."""

from __future__ import annotations

from repro.cli.args import (
    POLICIES,
    _parse_tables,
    add_crawl_pipeline_options,
    add_dataset_options,
)
from repro.cli.invoke import crawl_pipeline
from repro.dataset.characterize import (
    CRAWL_TABLES,
    DEFAULT_TABLES,
    render_crawl_table,
)


def cmd_crawl(args) -> int:
    def render(outcome) -> None:
        fold = outcome.result
        print(f"crawled {fold.attempted} sites with the "
              f"{args.policy} policy; {fold.success_count} "
              "succeeded")
        for token in args.tables:
            print()
            print(render_crawl_table(token, fold))

    crawl_pipeline(args, args.policy, render=render).run()
    return 0


def register(sub) -> None:
    crawl = sub.add_parser("crawl", help="crawl and characterize")
    add_dataset_options(crawl)
    add_crawl_pipeline_options(crawl)
    crawl.add_argument("--policy", choices=sorted(POLICIES),
                       default="chromium")
    crawl.add_argument("--tables", type=_parse_tables,
                       default=DEFAULT_TABLES,
                       help="comma-separated table numbers to render "
                            f"(1-{len(CRAWL_TABLES)} or 'all'; "
                            f"default {DEFAULT_TABLES})")
    crawl.set_defaults(func=cmd_crawl)
