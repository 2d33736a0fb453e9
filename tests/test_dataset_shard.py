"""Sharded crawling: partitioning, seeds, page order and the fold's
memory.

A crawl's archives depend on the shard *layout* (part of the
experiment definition) but never on the number of worker processes;
tests/data/digests.json holds that, byte for byte, at ``--jobs 2``.
"""

import gc
import weakref

import pytest

from repro.dataset import shard as shard_module
from repro.dataset.generator import DatasetConfig, PageGenerator
from repro.dataset.shard import (
    CrawlParams,
    ShardSpec,
    crawl_shard,
    crawl_shards,
    default_shard_count,
    derive_seed,
    plan_shards,
)


class TestPlanShards:
    def test_partition_covers_all_sites_contiguously(self):
        config = DatasetConfig(site_count=103)
        shards = plan_shards(config, 4)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert shards[0].lo == 0
        assert shards[-1].hi == 103
        for left, right in zip(shards, shards[1:]):
            assert left.hi == right.lo
        # Near-equal: sizes differ by at most one.
        sizes = [s.site_count for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_count_clamped_to_site_count(self):
        shards = plan_shards(DatasetConfig(site_count=3), 8)
        assert len(shards) == 3
        assert all(s.site_count == 1 for s in shards)

    def test_default_layout_is_about_100_sites_per_shard(self):
        assert default_shard_count(1) == 1
        assert default_shard_count(100) == 1
        assert default_shard_count(101) == 2
        assert default_shard_count(400) == 4

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(DatasetConfig(site_count=10), -1)

    def test_records_are_the_sliced_full_generation(self):
        config = DatasetConfig(site_count=20, seed=9)
        full = PageGenerator(config).generate_all()
        shards = plan_shards(config, 3)
        sliced = [r for s in shards for r in s.records()]
        assert [r.entry.domain for r in sliced] == \
            [r.entry.domain for r in full]
        assert [r.cert_san for r in sliced] == [r.cert_san for r in full]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2022, 0, 1, 4) == derive_seed(2022, 0, 1, 4)

    def test_varies_with_every_input(self):
        base = derive_seed(2022, 0, 1, 4)
        assert derive_seed(2023, 0, 1, 4) != base
        assert derive_seed(2022, 1, 1, 4) != base
        assert derive_seed(2022, 0, 2, 4) != base
        assert derive_seed(2022, 0, 1, 5) != base

    def test_world_and_crawler_domains_disjoint(self):
        config = DatasetConfig(site_count=8, seed=2022)
        spec = plan_shards(config, 2)[0]
        assert spec.world_seed != spec.crawler_seed(config.seed)


class TestCrawlShards:
    @pytest.fixture(scope="class")
    def config(self):
        return DatasetConfig(site_count=12, seed=41)

    @pytest.fixture(scope="class")
    def params(self):
        return CrawlParams(policy="chromium", speculative_rate=0.10)

    @pytest.fixture(scope="class")
    def serial(self, config, params):
        return crawl_shards(plan_shards(config, 4), params, 1)[0]

    def test_page_order_follows_rank(self, config, serial):
        hostnames = [a.page.hostname for a in serial.archives]
        expected = [
            f"www.{entry.domain}" for entry in config.tranco()
        ]
        assert hostnames == expected

    def test_shard_crawl_is_reproducible(self, config, params):
        spec = plan_shards(config, 4)[1]
        first = crawl_shard(spec, params).payload
        second = crawl_shard(spec, params).payload
        assert first.archives == second.archives

    def test_progress_reports_each_shard(self, config, params):
        seen = []
        crawl_shards(
            plan_shards(config, 3), params, 1,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestFoldMemory:
    """The merge holds one shard at a time: a shard's world -- cyclic
    garbage once its crawl returns -- is freed as soon as the fold has
    absorbed the shard, before the next world is built, and the
    fold-scoped freeze never outlives the fold."""

    CONFIG = DatasetConfig(site_count=9, seed=5)

    @pytest.fixture
    def worlds(self, monkeypatch):
        """A weak reference to every world a shard builds."""
        built = []
        real = ShardSpec.build_world

        def recording(spec):
            world = real(spec)
            built.append(weakref.ref(world))
            return world

        monkeypatch.setattr(ShardSpec, "build_world", recording)
        return built

    @pytest.mark.parametrize("collect", [None, (True, True)],
                             ids=["plain", "observed"])
    def test_each_world_is_freed_once_absorbed(self, worlds, collect):
        alive = []
        crawl_shards(
            plan_shards(self.CONFIG, 3), CrawlParams(), 1, collect=collect,
            progress=lambda done, total: alive.append(
                [ref() is not None for ref in worlds]),
        )
        assert alive == [[False], [False, False], [False, False, False]]
        assert gc.get_freeze_count() == 0

    def test_nothing_stays_frozen_when_a_shard_raises(self, monkeypatch):
        real = shard_module.crawl_shard

        def second_raises(spec, *args):
            if spec.index == 1:
                raise RuntimeError("shard 1 died")
            return real(spec, *args)

        monkeypatch.setattr(shard_module, "crawl_shard", second_raises)
        with pytest.raises(RuntimeError, match="shard 1 died"):
            crawl_shards(plan_shards(self.CONFIG, 3), CrawlParams(), 1)
        assert gc.get_freeze_count() == 0


class TestShardSpec:
    def test_spec_is_picklable(self):
        import pickle

        spec = plan_shards(DatasetConfig(site_count=10), 2)[1]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_world_contains_only_the_slice(self):
        config = DatasetConfig(site_count=10, seed=13)
        spec = plan_shards(config, 2)[1]
        world = spec.build_world()
        domains = [h.record.entry.domain for h in world.sites]
        expected = [r.entry.domain for r in spec.records()]
        assert domains == expected
        assert len(domains) == 5
