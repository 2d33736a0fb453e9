"""``repro privacy`` -- the §6.2 plaintext-exposure comparison."""

from __future__ import annotations

from repro.analysis import format_pct, render_table
from repro.cli.args import (
    add_crawl_pipeline_options,
    add_dataset_options,
)
from repro.cli.invoke import crawl_pipeline
from repro.dataset.characterize import CrawlFold


class PrivacyFold(CrawlFold):
    """``privacy``'s page sink: the crawl's fold, and each page's
    exposure today and under the ideal client
    (:meth:`PrivacyComparison.add
    <repro.core.privacy.PrivacyComparison.add>`)."""

    def __init__(self) -> None:
        from repro.core.privacy import PrivacyComparison

        super().__init__()
        self.comparison = PrivacyComparison()

    def add(self, archive) -> None:
        super().add(archive)
        self.comparison.add(archive)


def cmd_privacy(args) -> int:
    def render(outcome) -> None:
        comparison = outcome.result.comparison
        medians = comparison.median_signals()
        print(render_table(
            "Privacy -- plaintext signals per page (paper §6.2)",
            ["Client", "median DNS+SNI signals"],
            [("measured (today)", f"{medians['measured']:.0f}"),
             ("ideal ORIGIN client", f"{medians['ideal_origin']:.0f}")],
        ))
        print(f"\nsignal reduction "
              f"{format_pct(comparison.signal_reduction())}; median "
              f"hostnames hidden per page "
              f"{comparison.median_hostnames_hidden():.0f}")

    crawl_pipeline(args, "chromium", render=render,
                   pages=PrivacyFold).run()
    return 0


def register(sub) -> None:
    privacy = sub.add_parser("privacy", help="§6.2 exposure analysis")
    add_dataset_options(privacy)
    add_crawl_pipeline_options(privacy)
    privacy.set_defaults(func=cmd_privacy)
