"""Unit tests for repro.telemetry: tracer, metrics, exporters."""

import json
import math
import pickle

import pytest

from repro.audit.log import NULL_AUDIT
from repro.browser.pool import PoolStats
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    crawl_shard,
    crawl_shards,
    plan_shards,
    plan_slices,
)
from repro.obs.phases import NULL_PHASES
from repro.telemetry import (
    CrawlTrace,
    MetricsRegistry,
    NULL_TELEMETRY,
    NULL_TRACER,
    RegistryStats,
    Span,
    Telemetry,
    Tracer,
)
from repro.telemetry.exporters import (
    CATEGORY_TIDS,
    chrome_trace_document,
    chrome_trace_events,
    render_metrics_summary,
    spans_from_jsonl,
    spans_to_jsonl,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestTracer:
    def test_begin_end_records_interval(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.begin("fetch", category="browser", hostname="a.com")
        clock.t = 12.5
        tracer.end(span, status=200)
        assert span.start_ms == 0.0
        assert span.end_ms == 12.5
        assert span.attrs == {"hostname": "a.com", "status": 200}

    def test_ids_sequential_and_parenting(self):
        tracer = Tracer(FakeClock())
        parent = tracer.begin("site")
        child = tracer.begin("fetch", parent=parent)
        assert parent.span_id == 0
        assert child.span_id == 1
        assert child.parent_id == 0

    def test_instant_has_zero_duration(self):
        clock = FakeClock()
        clock.t = 3.0
        span = Tracer(clock).instant("pool.lookup", hit=True)
        assert span.finished
        assert span.start_ms == span.end_ms == 3.0

    def test_span_round_trips_through_dict(self):
        span = Span(span_id=7, name="fetch", category="browser",
                    start_ms=1.0, end_ms=2.0, parent_id=3, shard=2,
                    attrs={"status": 200})
        assert Span.from_dict(span.to_dict()) == span

    def test_null_tracer_is_a_flag(self):
        # The contract: a disabled flag and an empty span list; there
        # is nothing to call (every emit site checks enabled first).
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.spans == []
        assert not any(hasattr(NULL_TRACER, name)
                       for name in ("begin", "end", "instant"))

    def test_telemetry_bundles_tracer_and_metrics(self):
        telemetry = Telemetry(clock=FakeClock())
        assert telemetry.tracer.enabled
        assert isinstance(telemetry.metrics, MetricsRegistry)
        assert NULL_TELEMETRY.tracer is NULL_TRACER


#: What one traced, audited 12-site h2+h3 crawl shard (world 2022)
#: emits, by span category, audit kind and phase histogram.  A layer
#: left on the null handle drops out of one of these sets.
WIRED_SPAN_CATEGORIES = {"browser", "crawler", "dns", "h2", "pool",
                         "quic", "tls"}
WIRED_AUDIT_KINDS = {"decision", "dns", "h3", "lookup", "quic",
                     "speculative", "tls"}
WIRED_PHASES = {"phase.connect", "phase.dns", "phase.page", "phase.tls",
                "phase.ttfb"}


class TestTelemetryHandle:
    def test_null_collectors_are_flags(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.tracer is NULL_TRACER
        assert NULL_TELEMETRY.audit is NULL_AUDIT
        assert NULL_TELEMETRY.phases is NULL_PHASES
        assert NULL_AUDIT.enabled is False
        assert NULL_AUDIT.events == []
        assert NULL_PHASES.enabled is False

    def test_null_handle_has_no_profile_view(self):
        assert NULL_TELEMETRY.for_profile("chromium") is NULL_TELEMETRY
        assert NULL_TELEMETRY.for_profile("firefox", "c1") \
            is NULL_TELEMETRY

    def test_profile_view_shares_all_but_the_phase_recorder(self):
        telemetry = Telemetry(clock=FakeClock())
        view = telemetry.for_profile("firefox", "returning")
        assert view.tracer is telemetry.tracer
        assert view.audit is telemetry.audit
        assert view.metrics is telemetry.metrics
        assert telemetry.phases is NULL_PHASES
        assert (view.phases.policy, view.phases.cohort) \
            == ("firefox", "returning")
        quiet = view.phases_only()
        assert quiet.tracer is NULL_TRACER and quiet.audit is NULL_AUDIT
        assert quiet.phases is view.phases
        assert quiet.metrics is telemetry.metrics

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_uncollected_crawl_leaves_the_null_registry_empty(self, jobs):
        shards = plan_shards(DatasetConfig(site_count=8, seed=3), 2)
        result, trace = crawl_shards(shards, CrawlParams(), jobs)
        assert result.success_count > 0
        assert trace.spans == [] and trace.audit == []
        assert len(NULL_TELEMETRY.metrics) == 0
        assert NULL_TELEMETRY.metrics.metrics() == []

    def test_every_layer_is_wired_to_the_handle(self):
        spec = plan_shards(DatasetConfig(site_count=12, seed=2022), 1)[0]
        shard = crawl_shard(spec, next(plan_slices([spec])),
                            CrawlParams(alpn="h2,h3"), collect=(True, True))
        assert {span.category for span in shard.spans} \
            == WIRED_SPAN_CATEGORIES
        assert {event.kind for event in shard.events} \
            == WIRED_AUDIT_KINDS
        assert {metric.name for metric in shard.metrics
                if metric.name.startswith("phase.")} == WIRED_PHASES


class TestMetricsRegistry:
    def test_counter_identity_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("dns.queries")
        counter.inc()
        counter.inc(2)
        assert registry.counter("dns.queries") is counter
        assert registry.counter("dns.queries").value == 3

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", shard=0).inc()
        registry.counter("hits", shard=1).inc(5)
        assert registry.counter("hits", shard=0).value == 1
        assert registry.counter("hits", shard=1).value == 5

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_histogram_percentiles_conservative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10.0, 100.0))
        for value in (1.0, 2.0, 3.0, 250.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.percentile(0.5) == 10.0
        assert histogram.percentile(1.0) == 250.0  # inf bucket -> max
        assert histogram.min == 1.0 and histogram.max == 250.0

    def test_percentile_extremes_are_exact(self):
        histogram = MetricsRegistry().histogram(
            "lat", buckets=(10.0, 100.0)
        )
        for value in (3.0, 7.0, 42.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 3.0
        assert histogram.percentile(-0.5) == 3.0
        assert histogram.percentile(1.0) == 42.0
        assert histogram.percentile(1.5) == 42.0

    def test_percentile_empty_histogram_reads_zero(self):
        histogram = MetricsRegistry().histogram("lat")
        assert histogram.percentile(0.0) == 0.0
        assert histogram.percentile(0.5) == 0.0
        assert histogram.percentile(1.0) == 0.0

    def test_percentile_clamped_to_observed_max(self):
        # The p90 bucket bound (200) exceeds every observation; the
        # estimate must not report latency the run never saw.
        histogram = MetricsRegistry().histogram(
            "lat", buckets=(100.0, 200.0)
        )
        for value in (120.0, 130.0, 140.0):
            histogram.observe(value)
        assert histogram.percentile(0.9) == 140.0

    def test_observe_bisect_matches_bucket_semantics(self):
        # Upper-bound buckets: a value exactly on a bound lands in
        # that bound's bucket (bisect_left keeps the linear-scan
        # behaviour of `value <= bound`).
        histogram = MetricsRegistry().histogram(
            "lat", buckets=(10.0, 100.0)
        )
        histogram.observe(10.0)
        histogram.observe(10.5)
        histogram.observe(2500.0)
        assert histogram.bucket_counts == [1, 1, 1]

    def test_metrics_absorb_the_same_after_pickling(self):
        """A pool worker's metrics arrive pickled: they merge as the
        live objects do, the infinite bounds and extremes included."""
        registry = MetricsRegistry()
        registry.counter("c", shard=1).inc(4)
        registry.histogram("h").observe(3.0)
        registry.histogram("empty")
        live, pickled = MetricsRegistry(), MetricsRegistry()
        live.absorb(registry.metrics())
        pickled.absorb(pickle.loads(pickle.dumps(registry.metrics())))
        assert render_metrics_summary(pickled) \
            == render_metrics_summary(live)
        assert pickled.histogram("empty").min == math.inf

    def test_absorb_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.absorb(b.metrics())
        assert a.counter("c").value == 3

    def test_absorb_merges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(5.0)
        b.histogram("h").observe(500.0)
        a.absorb(b.metrics())
        merged = a.histogram("h")
        assert merged.count == 2
        assert merged.min == 5.0 and merged.max == 500.0

    def test_absorb_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, math.inf)).observe(0.5)
        b.histogram("h", buckets=(2.0, math.inf)).observe(0.5)
        with pytest.raises(ValueError):
            a.absorb(b.metrics())

    def test_absorb_rejects_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m").inc()
        b.histogram("m").observe(1.0)
        with pytest.raises(TypeError):
            a.absorb(b.metrics())
        with pytest.raises(TypeError):
            b.absorb(a.metrics())

    def test_absorb_never_aliases_a_shards_metrics(self):
        """The serial path hands the merge a shard's live objects:
        mutating them afterwards must not move the merged registry."""
        shard, merged = MetricsRegistry(), MetricsRegistry()
        shard.counter("c").inc(2)
        shard.histogram("h").observe(7.0)
        merged.absorb(shard.metrics())
        before = render_metrics_summary(merged)
        shard.counter("c").inc(100)
        shard.histogram("h").observe(9000.0)
        assert render_metrics_summary(merged) == before
        assert not set(map(id, merged.metrics())) \
            & set(map(id, shard.metrics()))


class _DemoStats(RegistryStats):
    _prefix = "demo."
    _counters = ("hits", "misses")


class TestRegistryStats:
    def test_attribute_api(self):
        stats = _DemoStats()
        assert stats.hits == 0
        stats.hits += 1
        stats.hits += 1
        stats.misses = 7
        assert stats.hits == 2
        assert stats.misses == 7

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _DemoStats().bogus

    def test_repr_lists_counters_in_declaration_order(self):
        stats = _DemoStats()
        stats.misses = 7
        stats.hits += 1
        assert repr(stats) == "_DemoStats(hits=1, misses=7)"

    def test_export_adds_counters_in_declaration_order(self):
        stats = _DemoStats()
        stats.misses = 4
        registry = MetricsRegistry()
        registry.counter("demo.misses").inc(1)
        stats.export(registry)
        stats.export(registry)
        assert [(c.name, c.value) for c in registry.metrics()] == [
            ("demo.misses", 9), ("demo.hits", 0),
        ]

    def test_pool_export_order(self):
        """Pool counters in declaration order, zeros included, then
        the quic.* counts in first-use order."""
        stats = PoolStats()
        stats.coalesced_reuses = 2
        stats.count_quic("quic.zero_rtt_resumptions")
        stats.count_quic("quic.handshake_rtts_saved", 2)
        stats.count_quic("quic.handshakes_1rtt")
        stats.count_quic("quic.handshake_rtts_saved")
        registry = MetricsRegistry()
        stats.export(registry)
        assert [(c.name, c.value) for c in registry.metrics()] == [
            ("pool.connections_opened", 0),
            ("pool.tls_handshakes", 0),
            ("pool.same_host_reuses", 0),
            ("pool.coalesced_reuses", 2),
            ("pool.connection_failures", 0),
            ("pool.same_host_lookups", 0),
            ("pool.coalesce_lookups", 0),
            ("pool.candidates_examined", 0),
            ("pool.pruned_connections", 0),
            ("quic.zero_rtt_resumptions", 1),
            ("quic.handshake_rtts_saved", 3),
            ("quic.handshakes_1rtt", 1),
        ]


class TestExporters:
    def _spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        a = tracer.begin("site", category="crawler", url="u")
        b = tracer.begin("dns.query", category="dns", parent=a)
        clock.t = 4.0
        tracer.end(b, wire=True)
        clock.t = 10.0
        tracer.end(a)
        tracer.instant("pool.lookup", category="pool", hit=False)
        return tracer.spans

    def test_jsonl_round_trip(self):
        spans = self._spans()
        text = spans_to_jsonl(spans)
        assert text.endswith("\n")
        assert spans_from_jsonl(text) == spans
        assert spans_to_jsonl([]) == ""

    def test_jsonl_is_canonical(self):
        spans = self._spans()
        assert spans_to_jsonl(spans) == spans_to_jsonl(
            spans_from_jsonl(spans_to_jsonl(spans))
        )

    def test_chrome_events_complete_and_instant(self):
        events = chrome_trace_events(self._spans())
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2
        assert len(instants) == 1
        dns = next(e for e in complete if e["name"] == "dns.query")
        assert dns["ts"] == 0.0
        assert dns["dur"] == 4000.0  # 4 ms in µs
        assert dns["tid"] == CATEGORY_TIDS["dns"]

    def test_chrome_events_thread_metadata_per_shard(self):
        spans = self._spans()
        for span in spans:
            span.shard = 3
        events = chrome_trace_events(spans)
        meta = [e for e in events if e["ph"] == "M"]
        assert {"ph": "M", "name": "process_name", "pid": 3, "tid": 0,
                "args": {"name": "crawl shard 3"}} in meta
        assert all(e["pid"] == 3 for e in events)

    def test_chrome_unfinished_span_flagged(self):
        tracer = Tracer(FakeClock())
        tracer.begin("open")
        events = chrome_trace_events(tracer.spans)
        span_events = [e for e in events if e["ph"] != "M"]
        assert span_events[0]["args"]["unfinished"] is True

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        with open(path, "w", encoding="utf-8") as out:
            count = write_chrome_trace(out, self._spans())
        assert count == 3
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document == chrome_trace_document(self._spans())

    def test_render_metrics_summary(self):
        registry = MetricsRegistry()
        registry.counter("dns.queries").inc(4)
        registry.histogram("page.load_ms").observe(120.0)
        text = render_metrics_summary(registry)
        assert "dns.queries" in text
        assert "4" in text
        assert "page.load_ms" in text
        assert render_metrics_summary(MetricsRegistry()) \
            == "(no metrics recorded)"

    def test_summary_empty_histogram_renders_dash_max(self):
        registry = MetricsRegistry()
        registry.histogram("phase.dns")  # registered, never observed
        text = render_metrics_summary(registry)
        line = next(l for l in text.splitlines() if "phase.dns" in l)
        assert line.rstrip().endswith("-")  # Max column
        assert " 0 " in line  # Count column

    def test_summary_single_bucket_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(50.0,))
        histogram.observe(10.0)
        histogram.observe(20.0)
        text = render_metrics_summary(registry)
        line = next(l for l in text.splitlines() if l.startswith("h"))
        # p50/p90 land in the only finite bucket, clamped to max.
        assert "20.0" in line
        assert "15.0" in line  # mean

    def test_summary_renders_merged_shard_histograms(self):
        shard0, shard1, merged = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        shard0.histogram("phase.ttfb", policy="chromium").observe(10.0)
        shard1.histogram("phase.ttfb", policy="chromium").observe(400.0)
        merged.absorb(shard0.metrics())
        merged.absorb(shard1.metrics())
        text = render_metrics_summary(merged)
        line = next(
            l for l in text.splitlines() if "phase.ttfb" in l
        )
        assert "policy=chromium" in line
        assert " 2 " in line  # merged count
        assert "400.0" in line  # merged max


class TestCrawlTrace:
    def test_extend_renumbers_and_tags_shards(self):
        trace = CrawlTrace()
        first = [Span(0, "a", "", 0.0, 1.0),
                 Span(1, "b", "", 0.0, 1.0, parent_id=0)]
        second = [Span(0, "c", "", 0.0, 1.0),
                  Span(1, "d", "", 0.0, 1.0, parent_id=0)]
        trace.extend(first, shard=0)
        trace.extend(second, shard=1)
        assert [s.span_id for s in trace.spans] == [0, 1, 2, 3]
        assert trace.spans[3].parent_id == 2
        assert [s.shard for s in trace.spans] == [0, 0, 1, 1]
