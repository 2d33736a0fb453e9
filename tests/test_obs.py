"""Unit tests for the run-ledger subsystem (:mod:`repro.obs`)."""

import pytest

from repro.obs import NULL_PHASES, PhaseRecorder
from repro.obs.compare import (
    CompareResult,
    CompareRow,
    compare_records,
    render_compare,
)
from repro.obs.heartbeat import Heartbeat
from repro.obs.ledger import (
    LedgerError,
    RunRecord,
    histogram_from_doc,
    merge_phase_docs,
    phase_docs_from_registry,
    resolve_record_path,
    write_record,
)
from repro.obs.report import render_report, slo_failures
from repro.obs.slo import (
    SloError,
    evaluate_slos,
    parse_slo,
    slo_burn,
)
from repro.telemetry.metrics import MetricsRegistry


class TestPhaseRecorder:
    def test_null_phases_is_a_flag(self):
        # The contract: a disabled flag and nothing to call (every
        # observation site checks enabled first).
        assert NULL_PHASES.enabled is False
        assert not hasattr(NULL_PHASES, "observe")

    def test_observations_land_in_labeled_histograms(self):
        registry = MetricsRegistry()
        phases = PhaseRecorder(registry, policy="chromium")
        phases.observe("dns", 40.0)
        phases.observe("ttfb", 120.0, protocol="h2")
        docs = phase_docs_from_registry(registry)
        assert [doc["name"] for doc in docs] == [
            "phase.dns", "phase.ttfb",
        ]
        assert docs[0]["labels"] == {
            "policy": "chromium", "protocol": "-", "cohort": "-",
        }
        assert docs[1]["labels"]["protocol"] == "h2"

    def test_two_recorders_share_series_through_one_registry(self):
        registry = MetricsRegistry()
        PhaseRecorder(registry, policy="p").observe("dns", 10.0)
        PhaseRecorder(registry, policy="p").observe("dns", 20.0)
        (doc,) = phase_docs_from_registry(registry)
        assert doc["count"] == 2

    def test_docs_sorted_in_phase_pipeline_order(self):
        registry = MetricsRegistry()
        phases = PhaseRecorder(registry)
        for name in ("page", "dns", "tls", "connect", "ttfb"):
            phases.observe(name, 1.0)
        names = [d["name"] for d in phase_docs_from_registry(registry)]
        assert names == ["phase.dns", "phase.connect", "phase.tls",
                         "phase.ttfb", "phase.page"]


SLO_TEXT = """
# latency gates
[[slo]]
name = "dns-p90"
phase = "dns"
quantile = 0.9
max_ms = 200.0
policy = "chromium"

[[slo]]
phase = "page"
quantile = 0.5
max_ms = 4000.0

[[slo]]
name = "no-failures"
metric = "pages_failed"
max = 0
"""


class TestSloParser:
    def test_parses_phase_and_metric_rules(self):
        rules = parse_slo(SLO_TEXT)
        assert [r.name for r in rules] == [
            "dns-p90", "page-p50", "no-failures",
        ]
        assert rules[0].policy == "chromium"
        assert rules[1].quantile == 0.5
        assert rules[2].max_value == 0

    def test_comments_and_blank_lines_ignored(self):
        rules = parse_slo(
            '[[slo]]\nphase = "dns" # trailing\n\n'
            'quantile = 0.5\nmax_ms = 100  # note\n'
        )
        assert rules[0].max_ms == 100.0

    def test_rejects_rule_with_both_phase_and_metric(self):
        with pytest.raises(SloError):
            parse_slo('[[slo]]\nphase = "dns"\nmetric = "x"\n')

    def test_rejects_phase_rule_missing_quantile(self):
        with pytest.raises(SloError, match="quantile"):
            parse_slo('[[slo]]\nphase = "dns"\nmax_ms = 1\n')

    def test_rejects_quantile_out_of_range(self):
        with pytest.raises(SloError, match="quantile"):
            parse_slo(
                '[[slo]]\nphase = "dns"\nquantile = 2\nmax_ms = 1\n'
            )

    def test_rejects_unknown_keys_and_tables(self):
        with pytest.raises(SloError, match="unknown key"):
            parse_slo('[[slo]]\nphase = "dns"\nquantile = 0.5\n'
                      'max_ms = 1\ntypo = 3\n')
        with pytest.raises(SloError, match="only"):
            parse_slo("[other]\n")

    def test_rejects_key_outside_table(self):
        with pytest.raises(SloError, match="outside"):
            parse_slo('phase = "dns"\n')

    def test_rejects_duplicate_names(self):
        with pytest.raises(SloError, match="duplicate"):
            parse_slo(
                '[[slo]]\nname = "x"\nmetric = "m"\nmax = 1\n'
                '[[slo]]\nname = "x"\nmetric = "n"\nmax = 1\n'
            )

    def test_rejects_unparsable_value(self):
        with pytest.raises(SloError, match="quoted string"):
            parse_slo("[[slo]]\nphase = dns\n")


def _phase_docs(**values_by_policy):
    registry = MetricsRegistry()
    for policy, values in values_by_policy.items():
        phases = PhaseRecorder(registry, policy=policy)
        for value in values:
            phases.observe("dns", value)
    return phase_docs_from_registry(registry)


class TestSloEvaluation:
    def test_pass_and_fail_verdicts(self):
        docs = _phase_docs(chromium=[40.0, 60.0, 80.0])
        rules = parse_slo(
            '[[slo]]\nname = "ok"\nphase = "dns"\nquantile = 0.9\n'
            'max_ms = 200\n'
            '[[slo]]\nname = "tight"\nphase = "dns"\nquantile = 0.9\n'
            'max_ms = 10\n'
        )
        rows = evaluate_slos(rules, docs, {})
        assert [row["ok"] for row in rows] == [True, False]
        assert rows[0]["count"] == 3

    def test_filters_merge_only_matching_series(self):
        docs = _phase_docs(chromium=[10.0], firefox=[5000.0])
        rules = parse_slo(
            '[[slo]]\nname = "g"\nphase = "dns"\nquantile = 1.0\n'
            'max_ms = 100\npolicy = "chromium"\n'
        )
        (row,) = evaluate_slos(rules, docs, {})
        assert row["ok"] is True
        assert row["count"] == 1

    def test_no_matching_data_passes_with_null_measurement(self):
        rules = parse_slo(
            '[[slo]]\nphase = "tls"\nquantile = 0.5\nmax_ms = 1\n'
        )
        (row,) = evaluate_slos(rules, [], {})
        assert row["ok"] is True and row["measured"] is None

    def test_metric_rule_max_and_min(self):
        rules = parse_slo(
            '[[slo]]\nmetric = "pages_failed"\nmax = 0\n'
            '[[slo]]\nmetric = "pages_succeeded"\nmin = 10\n'
        )
        rows = evaluate_slos(rules, [], {
            "pages_failed": 2, "pages_succeeded": 12,
        })
        assert [row["ok"] for row in rows] == [False, True]

    def test_slo_burn_counts_phase_rules_only(self):
        docs = _phase_docs(chromium=[500.0])
        rules = parse_slo(
            '[[slo]]\nphase = "dns"\nquantile = 0.5\nmax_ms = 100\n'
            '[[slo]]\nmetric = "pages_failed"\nmax = 0\n'
        )
        assert slo_burn(rules, docs) == (1, 1)


def _record(fingerprint="f" * 32, dns_values=(40.0, 60.0),
            headline=None, kind="crawl"):
    registry = MetricsRegistry()
    phases = PhaseRecorder(registry, policy="chromium")
    for value in dns_values:
        phases.observe("dns", value)
    meta = {
        "schema": 1, "kind": kind,
        "run": f"{kind}-{fingerprint[:12]}",
        "fingerprint": fingerprint, "git": "", "version": "1.0.0",
    }
    return RunRecord(
        meta=meta,
        phases=phase_docs_from_registry(registry),
        headline=dict(headline or {"pages_failed": 0}),
    )


class TestRunRecord:
    def test_jsonl_round_trip_is_identity(self):
        record = _record()
        record.slo = [{"name": "g", "target": "t", "measured": 1.0,
                       "count": 2, "ok": True}]
        text = record.to_jsonl()
        again = RunRecord.from_jsonl(text)
        assert again.meta == record.meta
        assert again.phases == record.phases
        assert again.headline == record.headline
        assert again.slo == record.slo
        assert again.to_jsonl() == text

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(LedgerError, match="not JSON"):
            RunRecord.from_jsonl("{nope\n")
        with pytest.raises(LedgerError, match="unknown record line"):
            RunRecord.from_jsonl('{"t":"wat"}\n')
        with pytest.raises(LedgerError, match="no meta"):
            RunRecord.from_jsonl('{"t":"headline","metrics":{}}\n')

    def test_write_and_resolve(self, tmp_path):
        record = _record()
        path = write_record(tmp_path, record)
        assert path.name == f"{record.run_id}.jsonl"
        assert resolve_record_path(str(path)) == path
        assert resolve_record_path(record.run_id, tmp_path) == path
        with pytest.raises(LedgerError, match="no run record"):
            resolve_record_path("missing", tmp_path)

    def test_histogram_doc_round_trip(self):
        (doc,) = _record(dns_values=(40.0, 60.0, 900.0)).phases
        histogram = histogram_from_doc(doc)
        assert histogram.count == 3
        assert histogram.min == 40.0 and histogram.max == 900.0

    def test_merge_phase_docs_sums_series(self):
        docs = _phase_docs(chromium=[10.0], firefox=[30.0])
        merged = merge_phase_docs(docs)
        assert merged.count == 2
        assert merged.min == 10.0 and merged.max == 30.0


class TestCompare:
    def test_identical_records_are_clean(self):
        result = compare_records(_record(), _record())
        assert result.exit_code == 0
        assert all(r.verdict == "unchanged" for r in result.rows
                   if r.group != "headline")

    def test_latency_regression_detected_and_named(self):
        result = compare_records(
            _record(dns_values=(40.0, 60.0)),
            _record(dns_values=(400.0, 600.0)),
        )
        assert result.exit_code == 1
        regressed = {row.metric for row in result.regressed}
        assert "phase.dns p50" in regressed

    def test_improvement_is_not_a_regression(self):
        result = compare_records(
            _record(dns_values=(400.0, 600.0)),
            _record(dns_values=(40.0, 60.0)),
        )
        assert result.exit_code == 0
        assert any(row.verdict == "improved" for row in result.rows)

    def test_noise_floor_suppresses_small_deltas(self):
        result = compare_records(
            _record(dns_values=(40.0,)),
            _record(dns_values=(42.0,)),
        )
        assert result.exit_code == 0

    def test_count_drift_reported_without_gating(self):
        result = compare_records(
            _record(dns_values=(40.0,)),
            _record(dns_values=(40.0, 41.0)),
        )
        assert result.exit_code == 0
        assert any(row.verdict == "changed" and "count" in row.metric
                   for row in result.rows)

    def test_headline_gates_only_on_same_fingerprint(self):
        worse = {"pages_failed": 5}
        same = compare_records(
            _record(headline={"pages_failed": 0}),
            _record(headline=worse),
        )
        assert same.exit_code == 1
        different = compare_records(
            _record(fingerprint="a" * 32,
                    headline={"pages_failed": 0}),
            _record(fingerprint="b" * 32, headline=worse),
        )
        assert different.exit_code == 0
        assert any("informational" in note
                   for note in different.notes)

    def test_kind_mismatch_is_incomparable(self):
        result = compare_records(
            _record(kind="crawl"), _record(kind="traffic")
        )
        assert result.exit_code == 2
        assert "kind mismatch" in result.incomparable

    def test_schema_mismatch_is_incomparable(self):
        newer = _record()
        newer.meta["schema"] = 99
        assert compare_records(_record(), newer).exit_code == 2

    def test_disjoint_phases_fall_back_to_headline(self):
        # A baseline cohort mix vs a fleet-ORIGIN one shares no phase
        # series (different cohort labels) but stays comparable via
        # the headline metrics.
        empty = _record(dns_values=())
        result = compare_records(_record(), empty)
        assert result.exit_code == 0
        assert any("not compared" in note for note in result.notes)

    def test_nothing_shared_is_incomparable(self):
        other = _record(dns_values=(), headline={"only_b": 1})
        assert compare_records(_record(), other).exit_code == 2

    def test_render_names_regressions(self):
        result = compare_records(
            _record(dns_values=(40.0,)),
            _record(dns_values=(900.0,)),
        )
        text = render_compare(result, "A", "B")
        assert "REGRESSED" in text
        assert "phase.dns p50" in text

    def test_render_clean_and_incomparable(self):
        clean = render_compare(
            CompareResult(rows=[CompareRow("m", "g", 1, 1,
                                           "unchanged")]),
            "A", "B",
        )
        assert "clean" in clean
        assert "incomparable: why" in render_compare(
            CompareResult(incomparable="why"), "A", "B"
        )


class TestReport:
    def test_ascii_report_sections(self):
        record = _record()
        record.slo = [
            {"name": "good", "target": "t", "measured": 60.0,
             "count": 2, "ok": True},
            {"name": "bad", "target": "t", "measured": 60.0,
             "count": 2, "ok": False},
            {"name": "idle", "target": "t", "measured": None,
             "count": 0, "ok": True},
        ]
        text = render_report(record)
        assert record.run_id in text
        assert "phase latency" in text
        assert "pages_failed" in text
        assert "PASS" in text and "FAIL" in text and "no data" in text
        assert slo_failures(record) == ["bad"]

    def test_markdown_report_has_tables(self):
        text = render_report(_record(), fmt="markdown")
        assert text.startswith("## Run")
        assert "| field | value |" in text
        assert "| --- |" in text

    def test_report_without_phases_states_it(self):
        text = render_report(_record(dns_values=()))
        assert "no phase histograms" in text


class _Stream:
    def __init__(self, tty=True):
        self.chunks = []
        self.tty = tty

    def write(self, chunk):
        self.chunks.append(chunk)

    def flush(self):
        pass

    def isatty(self):
        return self.tty


class TestHeartbeat:
    def test_disabled_on_non_tty(self):
        stream = _Stream(tty=False)
        hb = Heartbeat(stream=stream)
        assert hb.enabled is False
        assert hb.tick({"x": 1}) is False
        hb.close()
        assert stream.chunks == []

    def test_rate_limited_rewrites(self):
        stream = _Stream()
        now = [0.0]
        hb = Heartbeat(stream=stream, min_interval_s=1.0,
                       clock=lambda: now[0])
        assert hb.tick({"shards": "1/4"}) is True
        assert hb.tick({"shards": "2/4"}) is False  # too soon
        now[0] = 2.0
        assert hb.tick({"shards": "3/4"}) is True
        assert hb.tick({"shards": "4/4"}, force=True) is True
        hb.close()
        drawn = "".join(stream.chunks)
        assert drawn.count("\r") == 3
        assert "shards 2/4" not in drawn
        assert drawn.endswith("\n")

    def test_elapsed_uses_injected_clock(self):
        now = [5.0]
        hb = Heartbeat(stream=_Stream(), clock=lambda: now[0])
        now[0] = 8.5
        assert hb.elapsed() == 3.5
