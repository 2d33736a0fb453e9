"""Telemetry end-to-end: no-op equivalence, the streamed fold, and the
trace-validated Figure 2 waterfall oracle.  Byte identity of span and
Chrome trace exports across ``--jobs`` is the crawl rows' of
tests/data/digests.json."""

import json

import pytest

from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    crawl_shard,
    crawl_shards,
    plan_shards,
    plan_slices,
)
from repro.audit.log import events_to_jsonl
from repro.telemetry import CrawlTrace
from repro.telemetry.exporters import spans_to_jsonl
from tests.telemetry_validation import (
    assert_trace_valid,
    validate_crawl_trace,
)

CONFIG = DatasetConfig(site_count=10, seed=17)
PARAMS = CrawlParams()


def crawl_traced(config=CONFIG):
    """A fully observed crawl of ``config`` in two shards:
    ``(result, trace)``."""
    return crawl_shards(plan_shards(config, 2), PARAMS, 1,
                        collect=(True, True))[:2]


@pytest.fixture(scope="module")
def traced():
    return crawl_traced()


class TestTracedCrawl:
    def test_spans_cover_every_layer(self, traced):
        _, trace = traced
        names = {span.name for span in trace.spans}
        assert {"shard", "site", "fetch", "pool.lookup", "dns.query",
                "tls.handshake", "h2.connection", "h2.stream"} <= names

    def test_fetch_spans_carry_page_attrs(self, traced):
        result, trace = traced
        fetches = [s for s in trace.spans if s.name == "fetch"]
        assert fetches
        for span in fetches:
            assert span.category == "browser"
            assert "page" in span.attrs
            assert "hostname" in span.attrs
            assert span.finished

    def test_metrics_merged_across_shards(self, traced):
        result, trace = traced
        attempted = trace.metrics.counter("crawler.pages_attempted").value
        assert attempted == result.attempted
        assert trace.metrics.counter("pool.connections_opened").value > 0
        assert trace.metrics.counter("dns.queries").value > 0

    def test_tracing_does_not_change_archives(self, traced):
        """The zero-overhead claim's other half: a traced crawl yields
        byte-identical archives to an untraced crawl."""
        result, _ = traced
        untraced, _ = crawl_shards(plan_shards(CONFIG, 2), PARAMS, 1)
        assert [a.to_json() for a in untraced.archives] \
            == [a.to_json() for a in result.archives]

    def test_single_shard_traced_matches_untraced(self):
        spec = plan_shards(CONFIG, 2)[0]
        records = next(plan_slices([spec]))
        shard_result = crawl_shard(spec, records, PARAMS,
                                   collect=(True, True))
        traced_result, spans = shard_result.payload, shard_result.spans
        plain = crawl_shard(spec, records, PARAMS).payload
        assert [a.to_json() for a in traced_result.archives] \
            == [a.to_json() for a in plain.archives]
        assert spans


class TestStreamedFold:
    """A pipeline run's fold: the merge streams every shard's spans
    and audit events into the run's files as it absorbs the shard and
    keeps none of them, yet the files are the in-memory crawl's
    exports byte for byte."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_files_are_the_in_memory_exports(self, traced, tmp_path,
                                             jobs):
        _, kept = traced
        with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as spans, \
                open(tmp_path / "a.jsonl", "w", encoding="utf-8") as audit:
            _, streamed = crawl_shards(
                plan_shards(CONFIG, 2), PARAMS, jobs, collect=(True, True),
                crawl_trace=CrawlTrace(span_out=spans, audit_out=audit,
                                       keep_spans=False, keep_audit=False),
            )
        assert streamed.spans == [] and streamed.audit == []
        assert (streamed.span_count, streamed.event_count) \
            == (len(kept.spans), len(kept.audit))
        assert (tmp_path / "t.jsonl").read_text("utf-8") \
            == spans_to_jsonl(kept.spans)
        assert (tmp_path / "a.jsonl").read_text("utf-8") \
            == events_to_jsonl(kept.audit)


class TestFigure2Validation:
    def test_seeded_crawl_validates_clean(self, traced):
        result, trace = traced
        assert validate_crawl_trace(result, trace.spans) == []
        assert_trace_valid(result, trace.spans)

    def test_validates_across_seeds(self):
        result, trace = crawl_traced(DatasetConfig(site_count=8, seed=99))
        assert validate_crawl_trace(result, trace.spans) == []

    def test_corrupted_handshake_span_detected(self, traced):
        result, trace = traced
        # Deep-copy via dict round trip so the fixture stays pristine.
        from repro.telemetry import Span
        spans = [Span.from_dict(s.to_dict()) for s in trace.spans]
        victim = next(
            s for s in spans
            if s.name == "h2.connection" and "tls_ms" in s.attrs
            and s.attrs["tls_ms"] > 0
        )
        victim.attrs["tls_ms"] += 5.0
        problems = validate_crawl_trace(result, spans)
        assert problems
        assert any("h2.connection" in p or "handshake" in p
                   for p in problems)

    def test_shifted_fetch_span_detected(self, traced):
        result, trace = traced
        from repro.telemetry import Span
        spans = [Span.from_dict(s.to_dict()) for s in trace.spans]
        victim = next(s for s in spans if s.name == "fetch"
                      and s.attrs.get("status") == 200)
        victim.end_ms += 3.0
        problems = validate_crawl_trace(result, spans)
        assert any("traced fetch ended" in p for p in problems)

    def test_missing_page_spans_detected(self, traced):
        result, trace = traced
        succeeded = {a.page.url for a in result.successes}
        assert succeeded
        url = sorted(succeeded)[0]
        spans = [s for s in trace.spans
                 if not (s.name == "fetch"
                         and s.attrs.get("page") == url)]
        problems = validate_crawl_trace(result, spans)
        assert any(url in p for p in problems)

    def test_assert_raises_on_problem(self, traced):
        result, trace = traced
        from repro.telemetry import Span
        spans = [Span.from_dict(s.to_dict()) for s in trace.spans]
        victim = next(s for s in spans if s.name == "fetch"
                      and s.attrs.get("status") == 200)
        victim.end_ms += 1.0
        with pytest.raises(AssertionError, match="trace/waterfall"):
            assert_trace_valid(result, spans)


class TestCliTracing:
    def test_crawl_trace_writes_valid_chrome_trace(self, capsys,
                                                   tmp_path):
        from repro.cli import main

        out = tmp_path / "crawl.trace.json"
        assert main(["crawl", "--sites", "8", "--seed", "3",
                     "--no-cache", "--tables", "1",
                     "--trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        assert "trace:" not in captured.out
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        assert any(e["name"] == "fetch" for e in events)

    def test_metrics_flag_prints_summary(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["crawl", "--sites", "8", "--seed", "3",
                     "--no-cache", "--tables", "1", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "metrics -- counters and gauges" in captured.out
        assert "dns.queries" in captured.out

    def test_tracing_bypasses_cache_but_stores(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = str(tmp_path)
        argv = ["crawl", "--sites", "8", "--seed", "3",
                "--cache-dir", cache_dir, "--tables", "1"]
        out = tmp_path / "t.json"
        assert main(argv + ["--trace", str(out)]) == 0
        first = capsys.readouterr()
        assert "cache: bypassed for tracing" in first.err
        # The traced run stored the archives: an untraced rerun hits.
        assert main(argv) == 0
        assert "cache: hit" in capsys.readouterr().err
        # And tracing again still re-crawls rather than reading back.
        assert main(argv + ["--trace", str(out)]) == 0
        assert "cache: bypassed for tracing" in capsys.readouterr().err
