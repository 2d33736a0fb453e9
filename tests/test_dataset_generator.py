"""Tests for the Tranco list, page generator, and plan invariants."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import profiles
from repro.dataset.generator import (
    SHARD_COUNT_SHARES,
    DatasetConfig,
    PageGenerator,
    WeightedDraw,
)
from repro.dataset.tranco import TrancoList
from repro.traffic import scenario as traffic_scenario
from repro.web.page import FetchMode


class TestTrancoList:
    def test_entries_are_ranked_and_deterministic(self):
        tranco = TrancoList(100)
        assert len(tranco) == 100
        first = tranco.entry(1)
        assert first.rank == 1
        assert first.domain == TrancoList(100).entry(1).domain

    def test_domains_unique(self):
        tranco = TrancoList(500)
        domains = [entry.domain for entry in tranco]
        assert len(set(domains)) == 500

    def test_rank_bounds_enforced(self):
        tranco = TrancoList(10)
        with pytest.raises(IndexError):
            tranco.entry(0)
        with pytest.raises(IndexError):
            tranco.entry(11)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            TrancoList(0)


@pytest.fixture(scope="module")
def records():
    config = DatasetConfig(site_count=300, seed=11)
    return PageGenerator(config).generate_all(), config


class TestGeneratorDeterminism:
    def test_same_seed_same_plan(self):
        config = DatasetConfig(site_count=20, seed=5)
        a = PageGenerator(config).generate_all()
        b = PageGenerator(config).generate_all()
        assert [r.provider for r in a] == [r.provider for r in b]
        assert [r.cert_san for r in a] == [r.cert_san for r in b]
        assert [len(r.page.resources) for r in a] == \
            [len(r.page.resources) for r in b]

    def test_different_seed_different_plan(self):
        a = PageGenerator(DatasetConfig(site_count=20, seed=5)).generate_all()
        b = PageGenerator(DatasetConfig(site_count=20, seed=6)).generate_all()
        assert [len(r.page.resources) for r in a] != \
            [len(r.page.resources) for r in b]


#: sha256(repr(plan)) at the commit before the draws were rewritten
#: (8d0461a), keyed by (seed, site_count).  The plan is the root of
#: every artifact digest, so these never change by accident.
PINNED_PLANS = {
    (2022, 96):
        "b38e8e57e01f3bd6adc8fe9b4c79e585f4c69182be6272dcc9a1ab331da40781",
    (7, 96):
        "c2aa0c475e37bb7dabbfac939ed88be92833ce74c0e207f12649d20daa57052c",
    (2022, 240):
        "0392e72c9e2ae84be1ef934604b489ce049a8020c6493c2914bb12c940aa14b6",
}


class TestPlanIsPinned:
    @pytest.mark.parametrize("seed,site_count", sorted(PINNED_PLANS))
    def test_plan_digest(self, seed, site_count):
        plan = PageGenerator(
            DatasetConfig(site_count=site_count, seed=seed)
        ).generate_all()
        digest = hashlib.sha256(repr(plan).encode()).hexdigest()
        assert digest == PINNED_PLANS[(seed, site_count)]


def _normalized(weights):
    weights = np.array(weights, dtype=np.float64)
    return weights / weights.sum()


def _shipped_mixes():
    """Every probability vector ``src/`` draws from by index."""
    mixes = {"shard-count": np.array(SHARD_COUNT_SHARES)}
    mixes["global"] = _normalized(
        [w for _, w in profiles.CONTENT_TYPE_WEIGHTS])
    mixes["tail-issuers"] = _normalized(
        [w for _, w in profiles.TAIL_ISSUERS])
    for provider in profiles.PROVIDERS:
        if provider.content_mix is not None:
            mixes[f"provider:{provider.name}"] = _normalized(
                [w for _, w in provider.content_mix])
    for popular in profiles.POPULAR_THIRD_PARTIES:
        mixes[f"popular:{popular.hostname}"] = _normalized(
            [w for _, w in popular.content])
    for name in ("BASELINE_COHORTS", "ORIGIN_COHORTS", "IDEAL_SAN_COHORTS"):
        config = traffic_scenario.ScenarioConfig(
            cohorts=getattr(traffic_scenario, name))
        mixes[f"cohorts:{name}"] = np.asarray(config.normalized_shares())
    return mixes


def assert_draws_match_choice(p, seed, draws):
    """``WeightedDraw(p)`` and ``Generator.choice(len(p), p=p)`` give
    the same indices and leave same-seeded generators in one state."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    draw = WeightedDraw(p)
    for _ in range(draws):
        assert draw(ours) == numpys.choice(len(p), p=p)
    assert ours.bit_generator.state == numpys.bit_generator.state


class TestWeightedDraw:
    @pytest.mark.parametrize("name,p", sorted(_shipped_mixes().items()),
                             ids=sorted(_shipped_mixes()))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_choice_on_every_shipped_mix(self, name, p, seed):
        assert_draws_match_choice(p, seed, draws=40)

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
            min_size=1, max_size=16,
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_choice_on_random_weights(self, weights, seed):
        """Zeros anywhere -- leading, inside, trailing (so the CDF
        reaches 1.0 before its last slot) -- and one-element vectors."""
        assert_draws_match_choice(_normalized(weights), seed, draws=25)

    @pytest.mark.parametrize("p", [[1.0], [0.0, 1.0], [1.0, 0.0],
                                   [0.5, 0.5, 0.0, 0.0]])
    def test_boundary_vectors(self, p):
        assert_draws_match_choice(np.array(p), seed=3, draws=200)
        assert WeightedDraw(p).cdf[-1] == 1.0

    def test_returns_a_plain_int(self):
        index = WeightedDraw([0.5, 0.5])(np.random.default_rng(1))
        assert type(index) is int

    @pytest.mark.parametrize("bad", [
        [], [[0.5, 0.5]], [0.5, -0.5, 1.0], [0.5, float("nan")],
        [0.5, 0.4], [0.7, 0.7],
    ])
    def test_rejects_what_choice_rejects(self, bad):
        with pytest.raises(ValueError):
            WeightedDraw(bad)
        if bad and not isinstance(bad[0], list):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(len(bad), p=bad)


class TestPlanShape:
    def test_scaled_ranks_span_the_rank_space(self, records):
        sites, config = records
        ranks = [site.scaled_rank for site in sites]
        assert min(ranks) >= 1
        assert max(ranks) <= config.rank_space
        assert max(ranks) > 400_000  # covers the tail buckets

    def test_subresource_median_near_paper(self, records):
        sites, _ = records
        counts = [len(site.page.resources) for site in sites]
        median = float(np.median(counts))
        assert 55 <= median <= 115  # paper: 81

    def test_provider_shares_near_targets(self, records):
        sites, _ = records
        cloudflare = sum(1 for s in sites if s.provider == "Cloudflare")
        tail = sum(1 for s in sites if s.self_hosted)
        assert 0.15 <= cloudflare / len(sites) <= 0.35  # paper: 24.74%
        assert 0.35 <= tail / len(sites) <= 0.60

    def test_success_rate_near_paper(self, records):
        sites, _ = records
        rate = sum(1 for s in sites if s.accessible) / len(sites)
        assert 0.55 <= rate <= 0.72  # paper: 63.5%

    def test_every_page_graph_is_valid(self, records):
        sites, _ = records
        for site in sites:
            # The WebPage constructor validated the dependency graph:
            # every resource hangs off the root, directly or not.
            page = site.page
            reached = {r.path for r in page.children_of(None)}
            for resource in page.resources:
                reached.update(
                    r.path for r in page.children_of(resource.path))
            assert reached == {r.path for r in page.resources}

    def test_san_median_near_two(self, records):
        sites, _ = records
        san_counts = [len(s.cert_san) for s in sites if s.cert_san]
        assert 2 <= float(np.median(san_counts)) <= 3  # paper: 2

    def test_some_zero_san_sites(self, records):
        sites, _ = records
        zero = sum(1 for s in sites if not s.cert_san)
        assert 0 < zero / len(sites) < 0.10  # paper: ~3.5%

    def test_anonymous_fetches_present(self, records):
        sites, _ = records
        modes = [
            resource.fetch_mode
            for site in sites
            for resource in site.page.resources
        ]
        anonymous = sum(
            1 for mode in modes if mode is not FetchMode.NORMAL
        )
        assert 0.02 < anonymous / len(modes) < 0.30

    def test_insecure_rate_near_paper(self, records):
        sites, _ = records
        flags = [
            resource.secure
            for site in sites
            for resource in site.page.resources
        ]
        insecure = sum(1 for secure in flags if not secure)
        assert 0.005 < insecure / len(flags) < 0.035  # paper: 1.47%

    def test_popular_hosts_used_by_many_pages(self, records):
        sites, _ = records
        using_ga = sum(
            1 for site in sites
            if any(r.hostname == "www.google-analytics.com"
                   for r in site.page.resources)
        )
        assert using_ga / len(sites) > 0.4

    def test_tail_third_parties_shared(self, records):
        sites, _ = records
        generator = PageGenerator(DatasetConfig(site_count=300, seed=11))
        pool = {t.hostname for t in generator.tail_third_parties}
        seen = set()
        for site in sites:
            for resource in site.page.resources:
                if resource.hostname in pool:
                    seen.add(resource.hostname)
        assert len(seen) > 20
