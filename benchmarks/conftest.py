"""Shared state for the benchmark harness.

Heavy simulations (the crawl, the deployment) run once per session;
each bench then times the analysis that regenerates its table or
figure and prints paper-vs-measured rows.

The characterization crawl is the one ``repro crawl --sites
BENCH_SITES --seed 2022`` runs: the same shards, seeds and
:class:`~repro.dataset.crawler.CrawlParams`, so the suite's tables
are the CLI's.  Only the ablations that change a world before they
crawl it build one of their own.

Scale knobs come from environment variables so the harness can be run
bigger on beefier machines:

* ``REPRO_BENCH_SITES``   -- crawl size (default 400)
* ``REPRO_BENCH_DEPLOY``  -- deployment world size (default 300)
"""

import os

import pytest

from repro.core.certplan import plan_certificates
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig, PageGenerator
from repro.dataset.shard import crawl_shards, plan_shards
from repro.dataset.world import build_world
from repro.deployment import DeploymentExperiment
from repro.deployment.experiment import deployment_world_config

BENCH_SITES = int(os.environ.get("REPRO_BENCH_SITES", "400"))
DEPLOY_SITES = int(os.environ.get("REPRO_BENCH_DEPLOY", "300"))

#: The characterization crawl's dataset, as ``repro crawl`` names it.
CRAWL_CONFIG = DatasetConfig(site_count=BENCH_SITES, seed=2022)

#: Crawl worker processes; the archives are the same at any count.
CRAWL_JOBS = 2


@pytest.fixture(scope="session")
def crawl():
    """The characterization crawl: a CrawlResult."""
    result, _ = crawl_shards(plan_shards(CRAWL_CONFIG), CrawlParams(),
                             CRAWL_JOBS)
    return result


@pytest.fixture(scope="session")
def archives(crawl):
    return crawl.archives


@pytest.fixture(scope="session")
def successes(crawl):
    return crawl.successes


@pytest.fixture(scope="session")
def plan():
    """The §4.3 certificate plan, read from the site records as
    ``repro model`` reads them: it builds no world."""
    return plan_certificates(
        map(PageGenerator(CRAWL_CONFIG).generate, CRAWL_CONFIG.tranco()))


@pytest.fixture(scope="session")
def deployment():
    """A deployment world with reissued certificates."""
    world = build_world(deployment_world_config(site_count=DEPLOY_SITES))
    experiment = DeploymentExperiment(world)
    experiment.reissue_certificates()
    return world, experiment


def print_block(text):
    print()
    print(text)
