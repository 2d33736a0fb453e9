"""Crawl persistence and the content-addressed crawl cache."""

import gc
import tracemalloc
from itertools import islice

import pytest

from repro.dataset.cache import (
    CACHE_ENV_VAR,
    CrawlCache,
    cache_key,
    default_cache_dir,
)
from repro.cli import main
from repro.dataset import shard as shard_module
from repro.dataset.characterize import CrawlFold
from repro.dataset.crawler import CrawlParams, CrawlResult
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    ShardResult,
    crawl_shards,
    plan_shards,
    write_archive_lines,
)
from repro.runtime import CrawlWorkload, InstrumentationOptions, RunPipeline
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.sinks import CacheStatusSink
from repro.web.har import HarArchive, HarEntry, HarPage, HarTimings


def make_result() -> CrawlResult:
    """Two archives: one success with an entry, one failed page."""
    ok = HarArchive(
        page=HarPage(
            url="https://www.site000001.com/",
            hostname="www.site000001.com",
            rank=1,
            on_content_load=120.5,
            on_load=348.25,
            success=True,
            extra_tls_connections=1,
        ),
        entries=[
            HarEntry(
                url="https://www.site000001.com/",
                hostname="www.site000001.com",
                path="/",
                started_at=3.5,
                timings=HarTimings(dns=12.0, connect=24.0, ssl=36.5,
                                   wait=80.0, receive=10.25),
                server_ip="10.0.0.1",
                dns_addresses=["10.0.0.1", "10.0.0.2"],
                certificate_san=["www.site000001.com", "site000001.com"],
                certificate_issuer="Let's Encrypt (R3)",
                asn=13335,
                as_org="Cloudflare",
                coalesced=False,
            ),
        ],
    )
    failed = HarArchive(
        page=HarPage(
            url="https://www.site000002.net/",
            hostname="www.site000002.net",
            rank=2,
            success=False,
            failure_reason="non-200 or CAPTCHA",
        )
    )
    return CrawlResult(archives=[ok, failed])


def save(result: CrawlResult, path) -> None:
    """Write ``result`` in the entry format: HAR JSON lines through
    the writer every crawl uses."""
    with open(path, "w", encoding="utf-8") as out:
        write_archive_lines(out, ShardResult(payload=result))


def store(cache: CrawlCache, key: str, result: CrawlResult):
    """Write ``result`` as one shard through the entry writer, then
    publish it -- what a one-shard crawl does."""
    with cache.writing(key) as entry:
        write_archive_lines(entry, ShardResult(payload=result))
    return cache.store(key)


class TestCrawlResultRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        save(result, path)
        loaded = CrawlResult.load(path)
        assert loaded.archives == result.archives

    def test_failed_page_survives_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        save(result, path)
        loaded = CrawlResult.load(path)
        failed = loaded.archives[1]
        assert failed.page.success is False
        assert failed.page.failure_reason == "non-200 or CAPTCHA"
        assert failed.entries == []
        assert loaded.success_count == 1

    def test_timings_and_floats_are_exact(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        save(result, path)
        entry = CrawlResult.load(path).archives[0].entries[0]
        assert entry.timings.ssl == 36.5
        assert entry.started_at == 3.5
        assert entry.finished_at == result.archives[0].entries[0].finished_at


class TestSuccesses:
    def test_successes_follow_the_archives(self):
        result = make_result()
        assert [a.page.hostname for a in result.successes] == \
            ["www.site000001.com"]
        result.archives.append(
            HarArchive(page=HarPage(url="https://x/", hostname="x",
                                    success=True))
        )
        assert [a.page.hostname for a in result.successes] == \
            ["www.site000001.com", "x"]


class TestCacheKey:
    def setup_method(self):
        self.config = DatasetConfig(site_count=40, seed=2022)
        self.params = CrawlParams(policy="chromium")

    def test_stable(self):
        assert cache_key(self.config, self.params, 2) == \
            cache_key(self.config, self.params, 2)

    def test_sensitive_to_every_input(self):
        base = cache_key(self.config, self.params, 2)
        assert cache_key(DatasetConfig(site_count=41, seed=2022),
                         self.params, 2) != base
        assert cache_key(DatasetConfig(site_count=40, seed=2023),
                         self.params, 2) != base
        assert cache_key(self.config,
                         CrawlParams(policy="firefox"), 2) != base
        assert cache_key(self.config,
                         CrawlParams(policy="chromium",
                                     speculative_rate=0.2), 2) != base
        assert cache_key(self.config, self.params, 3) != base


class TestCrawlCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CrawlCache(tmp_path)
        key = "deadbeef"
        assert cache.load(key) is None
        path = store(cache, key, make_result())
        assert path == cache.path_for(key) and path.is_file()
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.archives == make_result().archives

    def test_corrupt_entry_treated_as_miss_and_dropped(self, tmp_path):
        cache = CrawlCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for("bad").write_text("{not json\n", encoding="utf-8")
        assert cache.load("bad") is None
        assert not cache.path_for("bad").exists()

    def test_a_hit_renders_what_the_miss_printed(self, tmp_path, capsys):
        """A hit streams the entry, line by line, into the fold the
        tables are views of: all seven come out byte-identical to the
        ones the miss that stored the entry printed."""
        argv = ["crawl", "--sites", "8", "--seed", "2022", "--shards",
                "2", "--cache-dir", str(tmp_path), "--tables", "all"]
        printed = []
        for status in ("miss, stored", "hit"):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert f"cache: {status} " in err
            printed.append(out)
        assert printed[0].count("\nTable ") == 7
        assert printed[1] == printed[0]

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_cached_pipeline_end_to_end(self, tmp_path):
        config = DatasetConfig(site_count=6, seed=17)
        params = CrawlParams()
        first = cached_crawl(tmp_path, config, params, shards=2)
        assert first.cache_hit is False
        path = CrawlCache(tmp_path).path_for(cache_key(config, params, 2))
        stored = path.read_bytes()
        second = cached_crawl(tmp_path, config, params, shards=2)
        assert second.cache_hit is True
        assert second.result.pages == first.result.pages
        # refresh re-crawls (deterministically) and keeps the entry.
        third = cached_crawl(tmp_path, config, params, shards=2,
                             refresh=True)
        assert third.cache_hit is False
        assert third.result.pages == first.result.pages
        assert path.read_bytes() == stored


# ---------------------------------------------------------------------------
# The streamed store: the entry is written while the shards merge
# ---------------------------------------------------------------------------

CONFIG = DatasetConfig(site_count=8, seed=2022)
PARAMS = CrawlParams()
KEY = cache_key(CONFIG, PARAMS, 4)


def cached_crawl(cache_dir, config=CONFIG, params=PARAMS, shards=4,
                 jobs=1, refresh=False):
    """The untraced crawl pipeline, as ``repro crawl`` runs it: the
    workload reads or writes the entry, then the sinks publish it."""
    workload = CrawlWorkload(config, params, shards=shards,
                             cache_dir=cache_dir, refresh=refresh)
    return RunPipeline(workload, jobs=jobs).run()


def fanned_out_crawl(cache_dir):
    """The 4-shard crawl at --jobs 2 into an entry of ``cache_dir``, as
    the workload runs it, keeping the archives the merge decoded: the
    merged result and the published entry's path."""
    cache = CrawlCache(cache_dir)
    with cache.writing(KEY) as entry:
        result, _ = crawl_shards(plan_shards(CONFIG, 4), PARAMS, 2,
                                 archive_out=entry)
    return result, cache.store(KEY)


def crawl_argv(cache_dir, jobs, *extra):
    return ["crawl", "--sites", "8", "--seed", "2022", "--shards", "4",
            "--jobs", str(jobs), "--cache-dir", str(cache_dir),
            "--refresh", "--tables", "1", *extra]


def _third_shard_raises(spec, records, params, collect=None, chaos=None):
    if spec.index == 2:
        raise RuntimeError("shard 2 died")
    return REAL_CRAWL_SHARD(spec, records, params, collect, chaos)


REAL_CRAWL_SHARD = shard_module.crawl_shard


class TestStreamedStore:
    @pytest.mark.parametrize("live", [False, True],
                             ids=["CacheStatusSink", "CacheStoreSink"])
    def test_fan_out_parent_never_encodes_an_archive(
        self, tmp_path, monkeypatch, capsys, live
    ):
        """At --jobs 2 the workers' lines go to the entry verbatim: no
        ``to_json`` call in this process, same bytes as --jobs 1."""
        calls = []
        real = HarArchive.to_json

        def counted(archive):
            calls.append(archive.page.url)
            return real(archive)

        monkeypatch.setattr(HarArchive, "to_json", counted)
        entries = {}
        for jobs in (1, 2):
            del calls[:]
            root = tmp_path / f"jobs{jobs}"
            extra = ["--audit", str(root / "a.jsonl")] if live else []
            root.mkdir()
            assert main(crawl_argv(root / "cache", jobs, *extra)) == 0
            assert len(calls) == (8 if jobs == 1 else 0)
            cache = CrawlCache(root / "cache")
            (entry,) = cache.entries()  # the CLI's own key
            assert [p.name for p in cache.root.iterdir()] == \
                [entry.path.name]
            entries[jobs] = entry.path.read_bytes()
            assert cache.load(entry.key).attempted == 8
        capsys.readouterr()
        assert entries[1] == entries[2]

    def test_new_entry_round_trips(self, tmp_path):
        """Every line re-encodes to its own bytes, decoded by the
        --jobs 2 merge and by a load of the entry."""
        result, path = fanned_out_crawl(tmp_path)
        loaded = CrawlResult.load(path)
        assert loaded.archives == result.archives
        text = path.read_text(encoding="utf-8")
        for archives in (result.archives, loaded.archives):
            assert text == "".join(
                archive.to_json() + "\n" for archive in archives)

    def test_cached_miss_is_published_by_the_sink(self, tmp_path):
        """The crawl leaves only the ``.tmp``; the cache sink is the
        one place an entry goes live, on the cached path as on the
        live one."""
        workload = CrawlWorkload(CONFIG, PARAMS, shards=4,
                                 cache_dir=tmp_path)
        options = InstrumentationOptions()
        outcome = workload.execute(1, options, [], RunArtifacts(options))
        assert not outcome.cache_hit
        assert [p.name for p in tmp_path.iterdir()] == [f"crawl-{KEY}.tmp"]
        assert not workload.cache.path_for(KEY).exists()
        (sink,) = workload.sinks(options, rules=None)
        assert isinstance(sink, CacheStatusSink)
        sink(outcome)
        assert [p.name for p in tmp_path.iterdir()] == \
            [f"crawl-{KEY}.jsonl"]
        loaded = workload.cache.load(KEY, CrawlFold())
        assert loaded.pages == outcome.result.pages

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serial_and_fan_out_share_one_writer(
        self, tmp_path, monkeypatch, jobs
    ):
        seen = []

        def recording(out, result):
            seen.append(result.har_lines is not None)
            write_archive_lines(out, result)

        monkeypatch.setattr(shard_module, "write_archive_lines", recording)
        cached_crawl(tmp_path, jobs=jobs)
        # One call per absorbed shard; only the fan-out has lines a
        # worker already encoded.
        assert seen == [jobs == 2] * 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_shard_leaves_no_entry_and_no_tmp(
        self, tmp_path, monkeypatch, jobs
    ):
        monkeypatch.setattr(shard_module, "crawl_shard", _third_shard_raises)
        cache = CrawlCache(tmp_path)
        with pytest.raises(RuntimeError, match="shard 2 died"):
            cached_crawl(tmp_path, jobs=jobs)
        assert list(cache.root.iterdir()) == []

    def test_failed_refresh_keeps_the_old_entry(self, tmp_path, monkeypatch):
        cache = CrawlCache(tmp_path)
        store(cache, KEY, make_result())
        monkeypatch.setattr(shard_module, "crawl_shard", _third_shard_raises)
        with pytest.raises(RuntimeError, match="shard 2 died"):
            cached_crawl(tmp_path, refresh=True)
        assert [p.name for p in cache.root.iterdir()] == \
            [f"crawl-{KEY}.jsonl"]
        assert cache.load(KEY).archives == make_result().archives

    def test_refresh_keeps_old_entry_loadable_until_the_replace(
        self, tmp_path
    ):
        cache = CrawlCache(tmp_path)
        store(cache, KEY, make_result())
        tmp = cache.path_for(KEY).with_suffix(".tmp")
        sizes = []

        def watch(done, total, _trace):
            # Mid-crawl: the new entry grows beside the old one, which
            # readers still get.
            assert cache.load(KEY).archives == make_result().archives
            entry.flush()
            sizes.append(tmp.stat().st_size)

        with cache.writing(KEY) as entry:
            result, _ = crawl_shards(plan_shards(CONFIG, 4), PARAMS, 1,
                                     archive_out=entry, watch=watch)
            assert cache.load(KEY).archives == make_result().archives
        assert sizes == sorted(sizes) and len(set(sizes)) == 4
        assert cache.store(KEY) == cache.path_for(KEY)
        assert not tmp.exists()
        assert cache.load(KEY).archives == result.archives

    def test_store_without_a_written_entry_raises(self, tmp_path):
        cache = CrawlCache(tmp_path)
        with pytest.raises(FileNotFoundError):
            cache.store("never-written")


# ---------------------------------------------------------------------------
# Decoded archives share their strings, one memo per decode pass
# ---------------------------------------------------------------------------

def hostnames(archives):
    for archive in archives:
        yield archive.page.hostname
        for entry in archive.entries:
            yield entry.hostname


class TestDecodedArchivesShareStrings:
    @pytest.fixture(scope="class")
    def fanned_out(self, tmp_path_factory):
        """A --jobs 2 crawl of the 4-shard world: its merged archives
        (decoded from the workers' lines) and its cache entry."""
        return fanned_out_crawl(tmp_path_factory.mktemp("cache"))

    def test_one_load_holds_each_hostname_once(self, fanned_out):
        _, path = fanned_out
        names = list(hostnames(CrawlResult.load(path).archives))
        assert len(set(names)) < len(names)
        assert len({id(name) for name in names}) == len(set(names))

    def test_two_loads_share_no_hostname(self, fanned_out):
        _, path = fanned_out
        first, second = (hostnames(CrawlResult.load(path).archives)
                         for _ in range(2))
        assert all(a == b and a is not b for a, b in zip(first, second))

    def test_a_fan_out_merge_shares_hostnames_across_shards(
            self, fanned_out):
        merged, _ = fanned_out
        shard_of = {}
        archives = iter(merged.archives)
        for spec in plan_shards(CONFIG, 4):
            for archive in islice(archives, spec.site_count):
                for name in hostnames([archive]):
                    shard_of.setdefault(name, set()).add(spec.index)
        assert any(len(shards) > 1 for shards in shard_of.values())
        names = list(hostnames(merged.archives))
        assert len({id(name) for name in names}) == len(set(names))

    def test_retained_bytes_per_decoded_entry(self, fanned_out):
        """Without the memo a decoded entry kept about 1,260 bytes here,
        a fresh copy of every name; with it, about 840."""
        _, path = fanned_out
        gc.collect()
        tracemalloc.start()
        try:
            loaded = CrawlResult.load(path)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = sum(len(archive.entries) for archive in loaded.archives)
        assert entries > 100
        assert retained / entries < 1_000
