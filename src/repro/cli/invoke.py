"""Bridge argparse namespaces onto the run pipeline.

One adapter per workload: lift the parsed flags into the declarative
pipeline parts (workload + instrumentation) so the command modules
only choose a policy and render output.
"""

from __future__ import annotations

from repro.runtime import (
    ChaosWorkload,
    CrawlWorkload,
    InstrumentationOptions,
    RunPipeline,
    TrafficWorkload,
)


def crawl_definition(args, policy_name: str):
    """The ``(DatasetConfig, CrawlParams)`` a crawl-family command
    line names.  ``chaos`` builds its dataset here too, so an empty
    schedule comes out byte-identical to a plain ``repro crawl`` of
    the same flags."""
    from repro.dataset.generator import DatasetConfig
    from repro.dataset.crawler import CrawlParams

    config = DatasetConfig(site_count=args.sites, seed=args.seed)
    params = CrawlParams(policy=policy_name, alpn=args.alpn,
                         dns_latency_ms=args.dns_latency)
    return config, params


def crawl_pipeline(args, policy_name: str, force_audit: bool = False,
                   render=None, pages=None) -> RunPipeline:
    """The shared crawl pipeline behind ``crawl``/``model``/
    ``privacy``/``explain``; ``pages``, the command's page sink, is
    :class:`~repro.runtime.workloads.CrawlWorkload`'s."""
    config, params = crawl_definition(args, policy_name)
    workload = CrawlWorkload(
        config, params, shards=args.shards,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        refresh=args.refresh, command=args.command,
        pages=pages,
    )
    return RunPipeline(
        workload,
        instrumentation=InstrumentationOptions.from_args(
            args, force_audit=force_audit),
        jobs=args.jobs,
        render=render,
    )


def chaos_pipeline(args, schedule, retry_policy,
                   render=None) -> RunPipeline:
    """The fault-injected crawl behind ``chaos``."""
    config, params = crawl_definition(args, args.policy)
    workload = ChaosWorkload(
        config, params, schedule, retry_policy,
        shards=args.shards, report_out=args.out,
    )
    return RunPipeline(
        workload,
        instrumentation=InstrumentationOptions.from_args(args),
        jobs=args.jobs,
        render=render,
    )


def traffic_pipeline(args, scenario, render=None) -> RunPipeline:
    workload = TrafficWorkload(
        scenario, shards=args.shards,
        scenario_name=args.scenario, aggregate_out=args.out,
    )
    return RunPipeline(
        workload,
        instrumentation=InstrumentationOptions.from_args(args),
        jobs=args.jobs,
        render=render,
    )
