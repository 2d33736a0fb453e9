"""Sharded crawling: partitioning, seeds, page order and the fold's
memory.

A crawl's archives depend on the shard *layout* (part of the
experiment definition) but never on the number of worker processes;
tests/data/digests.json holds that, byte for byte, at ``--jobs 2``.
"""

import gc
import weakref

import pytest

from repro.cli import main
from repro.dataset import shard as shard_module
from repro.dataset.characterize import CrawlFold
from repro.dataset.crawler import CrawlParams, CrawlResult
from repro.dataset.generator import DatasetConfig, PageGenerator
from repro.dataset.shard import (
    ShardSpec,
    crawl_shard,
    crawl_shards,
    SEED_DOMAINS,
    default_shard_count,
    derive_seed,
    partition,
    plan_shards,
    plan_slices,
)
from repro.runtime.sinks import RenderSink
from repro.web.har import HarArchive, HarEntry


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

    def test_sites_and_users_share_one_partition(self):
        from repro.traffic import ScenarioConfig, plan_user_shards

        assert partition(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert partition(250, None, size=100) == \
            [(0, 84), (84, 167), (167, 250)]
        shards = plan_user_shards(ScenarioConfig(users=10), 4)
        assert [(s.lo, s.hi) for s in shards] == partition(10, 4)
        assert [(s.lo, s.hi) for s in plan_shards(
            DatasetConfig(site_count=10), 4)] == partition(10, 4)
        with pytest.raises(ValueError, match="shard count"):
            plan_user_shards(ScenarioConfig(users=10), -1)


def _plan_view(records):
    return [(r.entry.domain, r.cert_san, r.page.resources, r.accessible)
            for r in records]


class TestPlanSlices:
    """One generation pass, handed out a slice at a time: every site
    gets the draws the full pass gives it, whatever the layout."""

    CONFIG = DatasetConfig(site_count=20, seed=9)

    @pytest.fixture(scope="class")
    def full(self):
        return _plan_view(PageGenerator(self.CONFIG).generate_all())

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 20])
    def test_slices_concatenate_to_the_full_pass(self, full, count):
        shards = plan_shards(self.CONFIG, count)
        slices = list(plan_slices(shards))
        assert [len(records) for records in slices] == \
            [spec.site_count for spec in shards]
        assert [view for records in slices
                for view in _plan_view(records)] == full

    @pytest.mark.parametrize("count,picks", [
        (3, [1]), (7, [3]), (7, [2, 5]), (20, [9, 10, 17]),
    ])
    def test_a_subset_of_specs_gets_the_full_pass_draws(
        self, full, count, picks
    ):
        shards = plan_shards(self.CONFIG, count)
        subset = [shards[index] for index in picks]
        for spec, records in zip(subset, plan_slices(subset)):
            assert _plan_view(records) == full[spec.lo:spec.hi]

    def test_specs_out_of_rank_order_are_refused(self):
        shards = plan_shards(self.CONFIG, 4)
        with pytest.raises(ValueError, match="rank order"):
            list(plan_slices([shards[2], shards[1]]))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2022, 0, 1, 4) == derive_seed(2022, 0, 1, 4)

    def test_varies_with_every_input(self):
        base = derive_seed(2022, 0, 1, 4)
        assert derive_seed(2023, 0, 1, 4) != base
        assert derive_seed(2022, 1, 1, 4) != base
        assert derive_seed(2022, 0, 2, 4) != base
        assert derive_seed(2022, 0, 1, 5) != base

    def test_every_stream_has_its_own_domain(self):
        assert len(set(SEED_DOMAINS.values())) == len(SEED_DOMAINS)
        assert SEED_DOMAINS == {"world": 0, "crawler": 1,
                                "population": 2, "chaos": 4, "retry": 5}

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
        return CrawlParams()

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
        records = next(plan_slices([spec]))
        first = crawl_shard(spec, records, params).payload
        second = crawl_shard(spec, records, params).payload
        assert first.archives == second.archives

    def test_progress_reports_each_shard(self, config, params):
        seen = []
        crawl_shards(
            plan_shards(config, 3), params, 1,
            watch=lambda done, total, _trace: seen.append((done, total)),
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

        def recording(spec, records):
            world = real(spec, records)
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
            watch=lambda done, total, _trace: alive.append(
                [ref() is not None for ref in worlds]),
        )
        assert alive == [[False], [False, False], [False, False, False]]
        assert gc.get_freeze_count() == 0

    @staticmethod
    def har_objects():
        """Live ``(HarArchive, HarEntry)`` counts."""
        gc.collect()
        kinds = [type(obj) for obj in gc.get_objects()]
        return kinds.count(HarArchive), kinds.count(HarEntry)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_fold_keeps_no_archive(self, jobs):
        """Each archive is folded and dropped as its shard merges, the
        ones a fan-out parent decodes included."""
        before = self.har_objects()
        fold, _ = crawl_shards(plan_shards(self.CONFIG, 3), CrawlParams(),
                               jobs, pages=CrawlFold())
        assert fold.attempted == 9
        assert self.har_objects() == before

    def test_a_result_keeps_every_archive(self):
        before = self.har_objects()
        result, _ = crawl_shards(plan_shards(self.CONFIG, 3),
                                 CrawlParams(), 1, pages=CrawlResult())
        kept = [now - then for now, then in zip(self.har_objects(), before)]
        assert kept == [len(result.archives),
                        sum(len(a.entries) for a in result.archives)]
        assert kept[0] == 9 and kept[1] > 9

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("argv, kept", [
        (["model"], 0),
        (["privacy"], 0),
        (["explain", "--pages", "1"], 1),
    ], ids=["model", "privacy", "explain"])
    def test_a_command_renders_from_its_fold(
        self, monkeypatch, capsys, tmp_path, jobs, argv, kept
    ):
        """While a crawl command renders, the only archives alive are
        the ones it draws: none for ``model`` and ``privacy``, on a
        miss and on the hit that streams the entry into the sink, and
        the one page ``explain --pages 1`` shows."""
        before = self.har_objects()
        alive = []
        render = RenderSink.__call__

        def counting(sink, outcome):
            alive.append([now - then for now, then
                          in zip(self.har_objects(), before)])
            render(sink, outcome)

        monkeypatch.setattr(RenderSink, "__call__", counting)
        for _ in range(2):
            assert main([*argv, "--sites", "9", "--seed", "5",
                         "--shards", "3", "--jobs", str(jobs),
                         "--cache-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "cache: hit" in err or argv[0] == "explain"
        assert [archives for archives, _ in alive] == [kept, kept]
        if not kept:
            assert alive == [[0, 0], [0, 0]]

    def test_one_slice_of_the_plan_is_live(self, monkeypatch):
        """While shard k runs, the stream has handed out exactly k + 1
        slices and no record of an earlier one is alive."""
        slices = []
        real_stream = shard_module.plan_slices

        def watched(specs):
            for records in real_stream(specs):
                slices.append([weakref.ref(record) for record in records])
                yield records

        seen = []
        real_shard = shard_module.crawl_shard

        def probe(spec, *args):
            seen.append((len(slices), [
                ref() is not None for refs in slices[:-1] for ref in refs
            ]))
            return real_shard(spec, *args)

        monkeypatch.setattr(shard_module, "plan_slices", watched)
        monkeypatch.setattr(shard_module, "crawl_shard", probe)
        crawl_shards(plan_shards(DatasetConfig(site_count=8, seed=5), 4),
                     CrawlParams(), 1)
        assert [produced for produced, _ in seen] == [1, 2, 3, 4]
        assert [any(alive) for _, alive in seen] == [False] * 4
        assert [len(alive) for _, alive in seen] == [0, 2, 4, 6]

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
        records = next(plan_slices([spec]))
        world = spec.build_world(records)
        domains = [h.record.entry.domain for h in world.sites]
        expected = [r.entry.domain for r in records]
        assert domains == expected
        assert len(domains) == 5
