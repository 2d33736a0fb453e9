"""Integration tests: the page-load engine over the simulated world."""

import numpy as np
import pytest

from repro.browser import (
    BrowserEngine,
    ChromiumPolicy,
    FirefoxPolicy,
    IdealOriginPolicy,
    NoCoalescingPolicy,
)
from repro.web import ContentType, FetchMode, Subresource, WebPage
from repro.web.har import NOT_APPLICABLE


def record_loads(engine):
    """The :class:`PageLoad` of every page ``engine`` starts from now
    on, in start order (the engine keeps none itself)."""
    loads = []
    start = engine.load

    def load(page, on_complete):
        loads.append(start(page, on_complete))
        return loads[-1]

    engine.load = load
    return loads


def simple_page(**kwargs):
    """Root on www.site.com with three subresources on CDN hostnames
    plus one on an unrelated origin."""
    defaults = dict(
        hostname="www.site.com",
        resources=[
            Subresource("static.site.com", "/app.js",
                        ContentType.APPLICATION_JAVASCRIPT, 20_000),
            Subresource("static.site.com", "/style.css",
                        ContentType.TEXT_CSS, 14_000),
            Subresource("thirdparty.cdn.com", "/lib.js",
                        ContentType.APPLICATION_JAVASCRIPT, 30_000),
            Subresource("other.com", "/pixel.gif",
                        ContentType.IMAGE_GIF, 2_000),
        ],
    )
    defaults.update(kwargs)
    return WebPage(**defaults)


class TestBasicPageLoad:
    def test_all_requests_complete(self, small_world):
        archive = small_world.engine().load_blocking(simple_page())
        assert len(archive.entries) == 5
        assert all(entry.status == 200 for entry in archive.entries)
        assert archive.page.success

    def test_page_load_time_positive_and_ordered(self, small_world):
        archive = small_world.engine().load_blocking(simple_page())
        assert archive.page.on_load > 0
        assert archive.page.on_content_load <= archive.page.on_load

    def test_root_entry_has_full_connection_setup(self, small_world):
        archive = small_world.engine().load_blocking(simple_page())
        root = archive.entries_by_start()[0]
        assert root.hostname == "www.site.com"
        assert root.timings.dns > 0
        assert root.timings.connect > 0
        assert root.timings.ssl > 0
        assert root.certificate_san  # validated a new chain

    def test_asn_annotation(self, small_world):
        archive = small_world.engine().load_blocking(simple_page())
        orgs = {entry.hostname: entry.as_org for entry in archive.entries}
        assert orgs["www.site.com"] == "CDN-AS"
        assert orgs["other.com"] == "Origin-AS"
        asns = {entry.asn for entry in archive.entries if entry.asn}
        assert asns == {13335, 64500}

    def test_har_entries_have_consistent_timings(self, small_world):
        archive = small_world.engine().load_blocking(simple_page())
        for entry in archive.entries:
            timings = entry.timings
            assert min(timings.blocked, timings.send, timings.wait,
                       timings.receive) >= 0
            for phase in (timings.dns, timings.connect, timings.ssl):
                assert phase >= 0 or phase == NOT_APPLICABLE
            assert entry.finished_at >= entry.started_at


class TestSameHostReuse:
    def test_second_resource_on_same_host_reuses(self, small_world):
        page = simple_page()
        archive = small_world.engine().load_blocking(page)
        static_entries = [e for e in archive.entries
                          if e.hostname == "static.site.com"]
        assert len(static_entries) == 2
        # One opened the connection; the other reused it.
        fresh = [e for e in static_entries if e.new_tls_connection]
        reused = [e for e in static_entries if not e.new_tls_connection]
        assert len(fresh) <= 1
        assert len(reused) >= 1
        for entry in reused:
            assert entry.timings.connect == -1.0
            assert entry.timings.ssl == -1.0


class TestChromiumCoalescing:
    def test_same_ip_subresource_coalesces(self, small_world):
        # static.site.com resolves to the same IP as www.site.com.
        archive = small_world.engine(ChromiumPolicy()).load_blocking(
            simple_page()
        )
        static = [e for e in archive.entries
                  if e.hostname == "static.site.com"]
        assert any(e.coalesced for e in static)
        coalesced = [e for e in static if e.coalesced]
        # Browser still queried DNS before deciding (§2.3).
        assert all(e.timings.dns >= 0 or e.timings.dns == -1.0
                   for e in coalesced)
        assert all(not e.new_tls_connection for e in coalesced)

    def test_different_ip_subresource_does_not_coalesce(self, small_world):
        # thirdparty.cdn.com resolves to 10.0.0.2, root connected 10.0.0.1.
        archive = small_world.engine(ChromiumPolicy()).load_blocking(
            simple_page()
        )
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(not e.coalesced for e in third)
        assert all(e.new_tls_connection for e in third)


class TestFirefoxCoalescing:
    def test_origin_frame_coalesces_across_ips(self, small_world):
        # thirdparty.cdn.com is in the edge's ORIGIN set and its SAN.
        archive = small_world.engine(FirefoxPolicy()).load_blocking(
            simple_page()
        )
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(e.coalesced for e in third)
        assert all(not e.new_tls_connection for e in third)
        # Firefox still paid the DNS query (§6.8).
        assert all(e.timings.dns >= 0 for e in third)

    def test_unrelated_origin_not_coalesced(self, small_world):
        archive = small_world.engine(FirefoxPolicy()).load_blocking(
            simple_page()
        )
        other = [e for e in archive.entries if e.hostname == "other.com"]
        assert all(not e.coalesced for e in other)
        assert all(e.new_tls_connection for e in other)

    def test_firefox_without_origin_misses_third_party(self, small_world):
        archive = small_world.engine(
            FirefoxPolicy(origin_frames=False)
        ).load_blocking(simple_page())
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(not e.coalesced for e in third)


class TestIdealOriginClient:
    def test_coalesced_resources_skip_dns(self, small_world):
        archive = small_world.engine(IdealOriginPolicy()).load_blocking(
            simple_page()
        )
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(e.coalesced for e in third)
        assert all(e.timings.dns == -1.0 for e in third)

    def test_fewer_connections_than_chromium(self, make_world):
        chromium_archive = make_world().engine(
            ChromiumPolicy()
        ).load_blocking(simple_page())
        ideal_archive = make_world().engine(
            IdealOriginPolicy()
        ).load_blocking(simple_page())
        assert (
            ideal_archive.tls_connection_count()
            < chromium_archive.tls_connection_count()
        )
        assert (
            ideal_archive.dns_query_count()
            < chromium_archive.dns_query_count()
        )


class TestFetchModes:
    def test_anonymous_fetch_not_coalesced(self, small_world):
        page = WebPage(
            hostname="www.site.com",
            resources=[
                Subresource("thirdparty.cdn.com", "/lib.js",
                            ContentType.APPLICATION_JAVASCRIPT, 30_000,
                            fetch_mode=FetchMode.CORS_ANONYMOUS),
            ],
        )
        archive = small_world.engine(FirefoxPolicy()).load_blocking(page)
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(not e.coalesced for e in third)
        assert all(e.new_tls_connection for e in third)
        assert third[0].fetch_mode == "cors-anonymous"

    def test_script_fetch_not_coalesced(self, small_world):
        page = WebPage(
            hostname="www.site.com",
            resources=[
                Subresource("thirdparty.cdn.com", "/data.json",
                            ContentType.APPLICATION_JSON, 3_000,
                            fetch_mode=FetchMode.SCRIPT_FETCH),
            ],
        )
        archive = small_world.engine(FirefoxPolicy()).load_blocking(page)
        third = [e for e in archive.entries
                 if e.hostname == "thirdparty.cdn.com"]
        assert all(not e.coalesced for e in third)


class TestNoCoalescing:
    def test_every_host_gets_own_connection(self, small_world):
        archive = small_world.engine(NoCoalescingPolicy()).load_blocking(
            simple_page()
        )
        hosts_with_new_conns = {
            e.hostname for e in archive.entries if e.new_tls_connection
        }
        assert hosts_with_new_conns == {
            "www.site.com", "static.site.com", "thirdparty.cdn.com",
            "other.com",
        }


class TestDependencyTiming:
    def test_child_starts_after_parent_finishes(self, small_world):
        page = WebPage(
            hostname="www.site.com",
            resources=[
                Subresource("static.site.com", "/style.css",
                            ContentType.TEXT_CSS, 14_000),
                Subresource("static.site.com", "/font.woff",
                            ContentType.FONT_WOFF2, 28_000,
                            parent="/style.css",
                            discovery_delay_ms=3.0),
            ],
        )
        archive = small_world.engine().load_blocking(page)
        by_path = {e.path: e for e in archive.entries}
        css = by_path["/style.css"]
        font = by_path["/font.woff"]
        assert font.started_at >= css.finished_at + 3.0 - 1e-6


class TestSpeculativeConnections:
    def test_extra_tls_connections_recorded(self, make_world):
        world = make_world()
        engine = world.engine(
            ChromiumPolicy(),
            rng=np.random.default_rng(1),
            speculative_rate=1.0,
        )
        archive = engine.load_blocking(simple_page())
        assert archive.page.extra_tls_connections > 0
        assert archive.tls_connection_count() > archive.dns_query_count()


class TestCache:
    def test_warm_load_uses_cache(self, make_world):
        world = make_world()
        engine = world.engine(ChromiumPolicy(), cache_enabled=True)
        page = simple_page()
        cold = engine.load_blocking(page)
        warm = engine.load_blocking(page)
        assert warm.tls_connection_count() <= cold.tls_connection_count()
        cached = [e for e in warm.entries if e.protocol == "cache"]
        assert cached

    def test_new_session_flushes_cache(self, make_world):
        world = make_world()
        engine = world.engine(ChromiumPolicy(), cache_enabled=True)
        page = simple_page()
        engine.load_blocking(page)
        engine.new_session()
        reload = engine.load_blocking(page)
        assert not [e for e in reload.entries if e.protocol == "cache"]


class TestFailures:
    def test_unresolvable_root_fails_page(self, small_world):
        page = WebPage(hostname="www.does-not-exist.example")
        archive = small_world.engine().load_blocking(page)
        assert not archive.page.success
        assert archive.entries[0].status == 0

    def test_unresolvable_subresource_does_not_fail_page(self, small_world):
        page = WebPage(
            hostname="www.site.com",
            resources=[
                Subresource("missing.example", "/x.js",
                            ContentType.TEXT_JAVASCRIPT, 100),
            ],
        )
        archive = small_world.engine().load_blocking(page)
        assert archive.page.success
        statuses = {e.hostname: e.status for e in archive.entries}
        assert statuses["missing.example"] == 0


class _SilentTransport:
    """A connected transport whose peer never answers, closes or
    aborts: whatever is sent is dropped."""

    on_data = None

    def send(self, data) -> None:
        pass

    def close(self) -> None:
        pass


class TestNeverCompletedInvariant:
    def test_names_every_unsettled_fetch(self, small_world, monkeypatch):
        """The loop draining with the page unfinished is an invariant
        breach; the error names the fetch that never settled instead
        of only the page URL."""
        real_connect = small_world.network.connect

        def connect(client, server_ip, port, on_connect, on_refused=None):
            if port != 80:
                return real_connect(client, server_ip, port, on_connect,
                                    on_refused)
            small_world.network.loop.schedule(
                12.5, lambda: on_connect(_SilentTransport())
            )

        monkeypatch.setattr(small_world.network, "connect", connect)
        page = WebPage(
            hostname="www.site.com",
            resources=[
                Subresource("static.site.com", "/app.js",
                            ContentType.APPLICATION_JAVASCRIPT, 20_000),
                Subresource("static.site.com", "/legacy.gif",
                            ContentType.IMAGE_GIF, 2_000, secure=False),
            ],
        )
        engine = small_world.engine()
        loads = record_loads(engine)
        with pytest.raises(RuntimeError) as raised:
            engine.load_blocking(page)
        assert str(raised.value) == (
            "page load for https://www.site.com/ never completed: "
            "1 unsettled fetch(es): http://static.site.com/legacy.gif "
            "(secure=False, reason=MISS_CLEARTEXT_HTTP, attempt=0, "
            "loss_retries=0, connect=12.5)"
        )
        # The fetches that did settle are not named, and left the set.
        (load,) = loads
        assert [s.path for s in load.unsettled] == ["/legacy.gif"]
        assert {e.path for e in load.entries} == {"/", "/app.js"}

    def test_finished_load_leaves_nothing_unsettled(self, small_world):
        load = small_world.engine().load(simple_page(), lambda _: None)
        small_world.network.loop.run_until_idle()
        assert load.finished and load.unsettled == {}


class TestCleartextConnectionLoss:
    """A port-80 connection torn before its response settles the fetch
    through the retry decision point, like a lost TLS connection
    (ROADMAP "Chaos must terminate")."""

    PAGE = WebPage(
        hostname="www.site.com",
        resources=[
            Subresource("static.site.com", "/app.js",
                        ContentType.APPLICATION_JAVASCRIPT, 20_000),
            Subresource("static.site.com", "/legacy.gif",
                        ContentType.IMAGE_GIF, 2_000, secure=False),
        ],
    )

    @staticmethod
    def tear(world, losses, end="server"):
        """Abort the first ``losses`` port-80 connections on their
        first chunk from ``end``: the server's response dropped on the
        path (packet loss), or the client's request (an on-path
        reset)."""
        world.edge_server.listen_plain_all()
        torn = []

        def tap(client, server_ip, port, client_end, server_end):
            if port != 80 or len(torn) >= losses:
                return
            torn.append(server_ip)
            victim = server_end if end == "server" else client_end
            victim.outbound_inspector = lambda data: False

        world.network.add_tap(tap)
        return torn

    @staticmethod
    def load(world, **context):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(clock=world.network.loop.now, trace=False,
                              audit=True)
        archives = []
        load = world.engine(telemetry=telemetry, **context).load(
            TestCleartextConnectionLoss.PAGE, archives.append
        )
        world.network.loop.run_until_idle()
        (archive,) = archives
        assert load.unsettled == {}
        (entry,) = [e for e in archive.entries if e.path == "/legacy.gif"]
        events = [e for e in telemetry.audit.events
                  if e.path == "/legacy.gif"]
        decisions = [e for e in events if e.kind == "decision"]
        assert len(decisions) == 1  # one audited decision per request
        return entry, decisions[0], [e for e in events
                                     if e.kind == "retry"]

    @pytest.mark.parametrize("end", ["server", "client"])
    def test_without_a_retry_policy_the_loss_is_a_failed_request(
            self, small_world, end):
        from repro.audit.reasons import ReasonCode

        torn = self.tear(small_world, losses=1, end=end)
        entry, decision, retries = self.load(small_world)
        assert torn and entry.status == 0 and retries == []
        assert decision.reason == ReasonCode.MISS_REQUEST_FAILED.value

    def test_a_retry_recovers_on_the_next_connection(self, small_world):
        from repro.audit.reasons import ReasonCode
        from repro.browser.retry import RetryPolicy

        self.tear(small_world, losses=1)
        entry, decision, retries = self.load(
            small_world,
            retry_policy=RetryPolicy(max_retries=2,
                                     retry_connection_loss=True),
        )
        assert entry.status == 200 and not entry.secure
        assert entry.url == "http://static.site.com/legacy.gif"
        assert [e.reason for e in retries] == \
            [ReasonCode.RETRY_BACKOFF.value]
        assert decision.reason == ReasonCode.RETRY_BACKOFF.value
        assert decision.decision == "cleartext"

    def test_retries_run_out(self, small_world):
        from repro.audit.reasons import ReasonCode
        from repro.browser.retry import RetryPolicy

        torn = self.tear(small_world, losses=99)
        entry, decision, retries = self.load(
            small_world,
            retry_policy=RetryPolicy(max_retries=2,
                                     retry_connection_loss=True),
        )
        assert len(torn) == 3 and entry.status == 0
        assert [e.reason for e in retries] == [
            ReasonCode.RETRY_BACKOFF.value, ReasonCode.RETRY_BACKOFF.value,
            ReasonCode.RETRY_EXHAUSTED.value,
        ]
        assert decision.reason == ReasonCode.RETRY_EXHAUSTED.value

    def test_a_refused_dial_is_retried_like_a_refused_tls_dial(
            self, small_world):
        """Nothing listens on port 80 here: every dial is refused, and
        each refusal is one trip through the retry decision point."""
        from repro.audit.reasons import ReasonCode
        from repro.browser.retry import RetryPolicy

        entry, decision, retries = self.load(small_world)
        assert entry.status == 0 and retries == []
        assert decision.reason == ReasonCode.MISS_REQUEST_FAILED.value
        entry, decision, retries = self.load(
            small_world,
            retry_policy=RetryPolicy(max_retries=2,
                                     retry_connection_loss=True),
        )
        assert entry.status == 0
        assert [e.reason for e in retries] == [
            ReasonCode.RETRY_BACKOFF.value, ReasonCode.RETRY_BACKOFF.value,
            ReasonCode.RETRY_EXHAUSTED.value,
        ]
        assert decision.reason == ReasonCode.RETRY_EXHAUSTED.value

    def test_a_close_after_the_response_is_ignored(self, small_world):
        small_world.edge_server.listen_plain_all()
        entry, decision, retries = self.load(small_world)
        assert entry.status == 200 and retries == []
