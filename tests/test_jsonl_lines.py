"""Span and audit records as JSONL: ``to_line()`` against the
dict-based reference spelling, the streamed sink files through their
parsers, and what an export costs in memory."""

import json
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.audit.log import AuditEvent, events_from_jsonl, events_to_jsonl
from repro.audit.reasons import ReasonCode
from repro.cli import main
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import (
    crawl_shard,
    plan_shards,
    plan_slices,
)
from repro.runtime import InstrumentationOptions
from repro.runtime.artifacts import RunArtifacts
from repro.runtime.sinks import AuditSink, TraceSink
from repro.telemetry import Span
from repro.telemetry.exporters import spans_from_jsonl, spans_to_jsonl


def reference_line(record) -> str:
    """The line as the exporters spelled it before ``to_line``: the
    canonical dump of the record's dict."""
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":")) + "\n"


HOSTILE_STRINGS = [
    "plain", "", "naïve ☃ \U0001f600", 'say "hi"', "back\\slash",
    "tab\there\nnewline\r\x00\x1f\x7f", "</script>", "  ",
]

HOSTILE_ATTRS = [
    {},
    {"flag": True, "off": False, "nothing": None},
    {"ratio": 0.1, "whole": 3.0, "tiny": 1e-09, "big": 1e22, "neg": -0.0},
    {"nested": {"b": [1, 2.5, "x", None], "a": {"z": 1, "y": [[], {}]}}},
    {"z": 1, "a": 2, "é": 3, 'q"uote': "v\\"},
    {"host": "naïve.example", "hosts": ["a", "b"], "count": 0},
]

SPANS = [
    Span(0, "a", "", 0.0),                                  # unfinished
    Span(1, "b", "dns", 0.0, 0.0),                          # instant
    Span(2, "c", "tls", 1.5, 3.0, parent_id=0, shard=3),
    Span(3, "d", "h2", 7.0, 1234567.890123, parent_id=2),   # whole start
    Span(4, "e", "pool", 0.1 + 0.2, 1e-07, parent_id=None, shard=0),
] + [
    Span(10 + i, text, text, 1.0, 2.0, attrs={"v": text})
    for i, text in enumerate(HOSTILE_STRINGS)
] + [
    Span(30 + i, "attrs", "browser", 1.0, 2.0, parent_id=i, attrs=attrs)
    for i, attrs in enumerate(HOSTILE_ATTRS)
]

_REASON = ReasonCode.MISS_NO_CONNECTION.value

EVENTS = [
    AuditEvent(0, "decision", _REASON, 0.0),
    AuditEvent(1, "lookup", _REASON, 12.3456789012),        # rounds to 6
    AuditEvent(2, "dns", _REASON, 5.0, shard=2),            # whole at_ms
    AuditEvent(3, "tls", _REASON, 0.1 + 0.2, page="https://a/"),
    AuditEvent(4, "h2", _REASON, 1.0, hostname="a.example"),
    AuditEvent(5, "h2", _REASON, 1.0, path="/x?y=1&z=2"),
    AuditEvent(6, "decision", _REASON, 1.0, decision="new-connection"),
    AuditEvent(7, "decision", _REASON, 1.0, attrs={"k": 1}),
    AuditEvent(8, "decision", _REASON, 9.75, "https://a/", "a.example",
               "/p", "coalesced", 1, {"ip": "10.0.0.1", "n": 2}),
] + [
    AuditEvent(20 + i, text or "k", _REASON, 1.0, page=text, hostname=text,
               path=text, decision=text, attrs={"v": text})
    for i, text in enumerate(HOSTILE_STRINGS)
] + [
    AuditEvent(40 + i, "decision", _REASON, 2.5, attrs=attrs)
    for i, attrs in enumerate(HOSTILE_ATTRS)
]


@pytest.fixture(scope="module")
def real_shard():
    """One traced + audited 12-site shard."""
    spec = plan_shards(DatasetConfig(site_count=12, seed=2022), 1)[0]
    result = crawl_shard(spec, next(plan_slices([spec])), CrawlParams(),
                         collect=(True, True))
    assert len(result.spans) > 1000 and len(result.events) > 1000
    return result


class TestToLine:
    @pytest.mark.parametrize(
        "record", SPANS + EVENTS,
        ids=[f"span{s.span_id}" for s in SPANS]
        + [f"event{e.seq}" for e in EVENTS])
    def test_hostile_table_matches_the_reference(self, record):
        assert record.to_line() == reference_line(record)
        assert json.loads(record.to_line()) == record.to_dict()

    def test_every_record_of_a_real_shard_matches(self, real_shard):
        for record in [*real_shard.spans, *real_shard.events]:
            assert record.to_line() == reference_line(record)

    def test_joined_exports_are_the_lines(self):
        assert spans_to_jsonl(SPANS) == "".join(map(reference_line, SPANS))
        assert events_to_jsonl(EVENTS) \
            == "".join(map(reference_line, EVENTS))
        assert spans_to_jsonl([]) == events_to_jsonl([]) == ""

    def test_records_keep_dataclass_manners(self):
        span = Span(7, "fetch", "browser", 1.0, attrs={"a": 1})
        assert span == Span(7, "fetch", "browser", 1.0, attrs={"a": 1})
        assert span != Span(7, "fetch", "browser", 1.0)
        assert span != "fetch"
        assert repr(span) == (
            "Span(span_id=7, name='fetch', category='browser', "
            "start_ms=1.0, end_ms=-1.0, parent_id=None, shard=0, "
            "attrs={'a': 1})")
        event = AuditEvent(seq=0, kind="dns", reason=_REASON, at_ms=2.0)
        assert event == AuditEvent(0, "dns", _REASON, 2.0)
        assert repr(event).startswith("AuditEvent(seq=0, kind='dns', ")
        for record in (span, event):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.bogus = 1
            with pytest.raises(TypeError):
                hash(record)


def _export(tmp_path, spans=(), events=()):
    """Stream ``spans`` and ``events`` (shard 0's records, so the
    merge renumbers nothing) into a run's artifacts as the shard merge
    does, and publish them with the two sinks; returns the (span,
    audit) paths."""
    t, a = tmp_path / "t.jsonl", tmp_path / "a.jsonl"
    options = InstrumentationOptions(trace_out=str(t), audit_out=str(a))
    artifacts = RunArtifacts(options)
    trace = artifacts.crawl_trace()
    trace.extend(spans, shard=0)
    trace.extend_audit(events, shard=0)
    assert trace.spans == [] and trace.audit == []
    outcome = SimpleNamespace(trace=trace)
    TraceSink(options, artifacts.trace)(outcome)
    AuditSink(artifacts.audit)(outcome)
    return t, a


class TestStreamedFiles:
    def test_sinks_write_the_lines_and_parsers_round_trip(
        self, tmp_path, real_shard
    ):
        spans, events = list(real_shard.spans), list(real_shard.events)
        t, a = _export(tmp_path, spans, events)
        assert t.read_text("utf-8") == "".join(map(reference_line, spans))
        assert a.read_text("utf-8") == "".join(map(reference_line, events))
        assert spans_from_jsonl(t.read_text("utf-8")) == spans
        # at_ms is rounded on export, so events compare by their lines.
        parsed = events_from_jsonl(a.read_text("utf-8"))
        assert events_to_jsonl(parsed) == a.read_text("utf-8")

    def test_audit_diff_against_the_dict_spelled_file_is_clean(
        self, tmp_path, real_shard, capsys
    ):
        """``reference_line`` is how the parent commit wrote the
        file."""
        events = list(real_shard.events)
        _, streamed = _export(tmp_path, events=events)
        before = tmp_path / "before.jsonl"
        before.write_text("".join(map(reference_line, events)),
                          encoding="utf-8")
        capsys.readouterr()
        assert main(["audit-diff", str(before), str(streamed)]) == 0
        assert "no changes" in capsys.readouterr().out

    def test_export_holds_no_whole_artifact(self, tmp_path):
        """20,000 spans + 20,000 events: the export may buffer a line
        and a file block, not megabytes of lines (joining them first
        peaked above 10 MB).  Traced from before the records exist: the
        merge renumbers every id in place, and the ints it replaces
        must count as freed."""
        count = 20_000
        tracemalloc.start()
        records = dict(
            spans=[Span(i, "browser.fetch", "browser", i * 1.5, i * 1.5 + 1,
                        parent_id=i - 1 if i else None,
                        attrs={"url": f"https://site-{i}.example/p",
                               "status": 200, "coalesced": False})
                   for i in range(count)],
            events=[AuditEvent(i, "decision", _REASON, i * 0.25,
                              page=f"https://site-{i}.example/",
                              hostname=f"cdn-{i}.example", path="/asset.js",
                              decision="new-connection", attrs={"ip": "10.0.0.1"})
                   for i in range(count)],
        )
        try:
            retained, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            t, a = _export(tmp_path, **records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.stat().st_size > 2_000_000 and a.stat().st_size > 2_000_000
        assert peak - retained < 1_000_000
