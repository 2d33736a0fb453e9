"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``crawl``      -- generate + crawl a synthetic web, print Tables 1-7
* ``model``      -- run the §4 model (Figure 3, headline, cert plan)
* ``deploy``     -- run the §5 deployment (Figures 6/7b, passive
  pipeline)
* ``explain``    -- reason-coded waterfalls and miss-reason breakdowns
* ``audit-diff`` -- decision-by-decision comparison of two audit exports
* ``privacy``    -- the §6.2 privacy exposure comparison
* ``traffic``    -- population-scale traffic with edge load accounting
* ``chaos``      -- fault-injected crawl with a blast-radius report
* ``cache``      -- inspect or prune the crawl cache
* ``report``     -- render one run-ledger record as a dashboard
* ``compare``    -- regression verdicts between two ledger records
* ``run``        -- execute a declarative scenario file

``crawl``, ``model``, and ``privacy`` share one crawl pipeline: the
dataset is partitioned into deterministic shards (``--shards``),
crawled by ``--jobs`` worker processes, and the merged archives are
persisted in a content-addressed cache so repeated invocations with
the same configuration skip the crawl entirely (``cache: hit``).

Any crawl-pipeline command (plus ``traffic`` and ``chaos``) takes
``--ledger DIR`` to append a canonical run record -- per-phase latency
histograms, headline metrics, SLO verdicts from ``--slo FILE`` -- that
``report`` and ``compare`` consume (see :mod:`repro.obs`).

The command modules in this package only parse arguments and render
output; orchestration (shards, workers, cache, instrumentation,
artifact sinks) lives in :mod:`repro.runtime`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.cli import (
    cache,
    chaos,
    crawl,
    deploy,
    explain,
    model,
    privacy,
    report,
    run,
    traffic,
)
from repro.cli.args import (  # noqa: F401  (public CLI surface)
    BREAKDOWN_METRICS,
    POLICIES,
    SUPPORTED_ALPN,
    _nonnegative_int,
    _parse_alpn,
    _parse_breakdown,
    _parse_tables,
    _positive_int,
)
from repro.dataset.characterize import (  # noqa: F401
    CRAWL_TABLES,
    DEFAULT_TABLES,
)

#: Command modules in help-listing order.
_COMMAND_MODULES = (
    crawl, model, deploy, explain, privacy, traffic, chaos, cache,
    report, run,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Respect the ORIGIN!' (IMC 2022)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _COMMAND_MODULES:
        module.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
