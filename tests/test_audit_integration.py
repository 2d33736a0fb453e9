"""End-to-end audit guarantees: dense shard-ordered merges, one
decision per request, and the acceptance criterion -- the per-reason
breakdown reconciles *exactly* with the measured-vs-ideal Figure 3
gaps, for every policy."""

import json
from collections import Counter

import pytest

from repro.audit import ReasonCode
from repro.audit.explain import Explanation
from repro.audit.log import events_to_jsonl
from repro.audit.reconcile import (
    METRICS,
    decision_index,
    reconcile_dns,
    reconcile_page,
    reconcile_result,
)
from repro.cli import main
from repro.core.predictions import figure3
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import crawl_shards, plan_shards
from tests.test_chaos import every_kind_run
from tests.test_core_timeline import archive, entry

CONFIG = DatasetConfig(site_count=8, seed=11)

ALL_POLICIES = ("chromium", "firefox", "firefox+origin",
                "ideal-origin", "none")


def audited_crawl(policy):
    return crawl_shards(
        plan_shards(CONFIG, 2),
        CrawlParams(policy=policy), 1,
        collect=(False, True),
    )[:2]


@pytest.fixture(scope="module")
def audited():
    """One audited crawl per policy, shared across the module."""
    return {policy: audited_crawl(policy) for policy in ALL_POLICIES}


class TestMerge:
    def test_events_merge_in_shard_order_with_dense_seqs(self, audited):
        _, trace = audited["chromium"]
        assert [event.seq for event in trace.audit] \
            == list(range(len(trace.audit)))
        shards = [event.shard for event in trace.audit]
        assert shards == sorted(shards)


class TestDecisionCoverage:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_request_gets_exactly_one_decision(
        self, audited, policy
    ):
        result, trace = audited[policy]
        decisions = decision_index(trace.audit)
        entries = {
            (archive.page.url, entry.hostname, entry.path)
            for archive in result.archives
            for entry in archive.entries
        }
        assert set(decisions) == entries
        decision_events = [e for e in trace.audit
                           if e.kind == "decision"]
        total_entries = sum(len(archive.entries)
                            for archive in result.archives)
        assert len(decision_events) == total_entries

    def test_all_reason_codes_are_taxonomy_members(self, audited):
        values = {code.value for code in ReasonCode}
        for policy in ALL_POLICIES:
            _, trace = audited[policy]
            assert {event.reason for event in trace.audit} <= values


class TestExactReconciliation:
    """The acceptance criterion: per-reason counts decompose the
    Figure 3 measured-vs-ideal gaps exactly, under every policy."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_breakdown_reconciles_with_figure3(self, audited, policy):
        result, trace = audited[policy]
        breakdowns = reconcile_result(result.archives,
                                      decision_index(trace.audit))
        fig = figure3(result.archives)
        for model in ("origin", "ip"):
            ideal = fig.ideal_origin if model == "origin" \
                else fig.ideal_ip
            for metric in METRICS:
                b = breakdowns[model][metric]
                assert b.reconciles(), (policy, model, metric)
                assert b.ideal == sum(ideal)
                if metric == "dns":
                    assert b.measured == sum(fig.measured_dns)
                else:
                    assert b.measured == sum(fig.measured_tls)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_no_unattributed_spends(self, audited, policy):
        result, trace = audited[policy]
        breakdowns = reconcile_result(result.archives,
                                      decision_index(trace.audit))
        for model in ("origin", "ip"):
            for metric in METRICS:
                b = breakdowns[model][metric]
                assert b.excess[
                    ReasonCode.MISS_UNATTRIBUTED.value
                ] == 0, (policy, model, metric)

    def test_validations_mirror_tls(self, audited):
        result, trace = audited["chromium"]
        breakdowns = reconcile_result(result.archives,
                                      decision_index(trace.audit))
        for model in ("origin", "ip"):
            tls = breakdowns[model]["tls"]
            val = breakdowns[model]["validations"]
            assert (val.measured, val.ideal) == (tls.measured, tls.ideal)
            assert val.excess == tls.excess
            assert val.credits == tls.credits

    def test_rendered_report_shows_reconciled_tables(self, audited):
        result, trace = audited["chromium"]
        explanation = Explanation(pages=1)
        explanation.add(result.archives, trace.audit)
        report = explanation.render()
        assert "gap = sum(excess) - sum(credits)" in report
        assert "DOES NOT RECONCILE" not in report
        assert "more pages not shown" in report


class TestReconciliationUnderFaults:
    """The identities hold page by page when requests fail: every
    spend on a failed request is excess under its failure code."""

    FAILURE_CODES = (ReasonCode.MISS_REQUEST_FAILED.value,
                     ReasonCode.MISS_MISDIRECTED_421.value)

    def test_every_page_of_a_faulted_crawl_reconciles(self):
        result, trace, _ = every_kind_run()
        decisions = decision_index(trace.audit)
        spends = {"dns": lambda e: e.timings.used_dns,
                  "tls": lambda e: e.new_tls_connection}
        failed = Counter()
        for archive_ in result.archives:
            for model in ("origin", "ip"):
                page = reconcile_page(archive_, decisions, model)
                for metric in METRICS:
                    assert page[metric].reconciles(), \
                        (archive_.page.url, model, metric)
                for metric, spent in spends.items():
                    failures = [e for e in archive_.entries
                                if e.status != 200 and spent(e)]
                    excess = page[metric].excess
                    assert sum(excess[code] for code in
                               self.FAILURE_CODES) == len(failures)
                    assert excess[ReasonCode.MISS_MISDIRECTED_421.value] \
                        == sum(e.status == 421 for e in failures)
                    failed[metric] += len(failures)
        # Failed requests paid queries; none of them paid for a
        # completed handshake (a refused one records no TLS time).
        assert failed["dns"] > 0

    def test_services_that_paid_no_wire_query_are_credited(self):
        """One root query, then three services that never asked: one
        served from the HTTP cache, one coalesced onto another
        service's connection, one answered without a wire query (a
        DNS cache hit or a stale answer); an unplaceable entry that
        paid none is credited the same way."""
        page = archive([
            entry("www.example.com", "/", 0.0, asn=10, dns=20.0,
                  connect=30.0, ssl=30.0, initiator=""),
            entry("cached.example.net", "/a.js", 50.0, asn=20,
                  protocol="cache", wait=0.0, receive=0.0),
            entry("cdn.example.org", "/b.js", 60.0, asn=30),
            entry("warm.example.io", "/c.js", 70.0, asn=40, connect=30.0,
                  ssl=30.0),
            entry("nowhere.example", "/d.js", 80.0, asn=0),
        ])
        page.entries[2].coalesced = True
        dns = reconcile_dns(page, {}, "origin")
        assert dns.reconciles()
        assert (dns.measured, dns.ideal) == (1, 5)
        assert dns.baseline == Counter(
            {ReasonCode.MISS_DIFFERENT_AS.value: 1})
        assert dns.credits == Counter({
            ReasonCode.CREDIT_CACHED.value: 1,
            ReasonCode.CREDIT_COALESCED_ACROSS_SERVICES.value: 1,
            ReasonCode.CREDIT_NO_WIRE_QUERY.value: 2,
        })


class TestCliIntegration:
    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_explain_stdout_is_report_only(self, capsys, tmp_path):
        code, out, err = self.run(capsys, [
            "explain", "--sites", "6", "--seed", "11",
            "--cache-dir", str(tmp_path), "--pages", "1",
        ])
        assert code == 0
        assert "page https://" in out
        assert "legend:" in out
        assert "gap vs ideal-origin" in out
        assert "gap vs ideal-ip" in out
        # Diagnostics are stderr-only (PR 2 convention).
        assert "explain:" in err
        assert "audit events" in err
        assert "explain:" not in out
        assert "cache:" not in out

    def test_explain_breakdown_subset(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, [
            "explain", "--sites", "6", "--seed", "11",
            "--cache-dir", str(tmp_path), "--pages", "0",
            "--breakdown", "tls",
        ])
        assert code == 0
        assert "tls gap vs ideal-origin" in out
        assert "dns gap" not in out

    def test_explain_taxonomy(self, capsys):
        code, out, err = self.run(capsys, ["explain", "--taxonomy"])
        assert code == 0
        for reason in ReasonCode:
            assert reason.value in out

    def test_crawl_audit_export_and_diff_clean(
        self, capsys, tmp_path
    ):
        a = tmp_path / "a.jsonl"
        assert main(["crawl", "--sites", "6", "--seed", "11",
                     "--cache-dir", str(tmp_path),
                     "--audit", str(a)]) == 0
        capsys.readouterr()
        code, out, err = self.run(
            capsys, ["audit-diff", str(a), str(a)]
        )
        assert code == 0
        assert "no changes" in out

    def test_audit_diff_reports_changes(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["crawl", "--sites", "6", "--seed", "11",
                     "--cache-dir", str(tmp_path),
                     "--audit", str(a)]) == 0
        assert main(["crawl", "--sites", "6", "--seed", "12",
                     "--cache-dir", str(tmp_path),
                     "--audit", str(b)]) == 0
        capsys.readouterr()
        code, out, _ = self.run(
            capsys, ["audit-diff", str(a), str(b)]
        )
        assert code == 1
        assert "decisions compared" in out

    def test_audit_diff_rejects_unknown_code(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        doc = {"seq": 0, "kind": "decision", "reason": "MISS_BOGUS",
               "at_ms": 0.0, "shard": 0}
        a.write_text(json.dumps(doc) + "\n")
        code, out, err = self.run(
            capsys, ["audit-diff", str(a), str(a)]
        )
        assert code == 2
        assert "MISS_BOGUS" in err
        assert out == ""

    def test_audit_diff_missing_file(self, capsys, tmp_path):
        code, _, err = self.run(capsys, [
            "audit-diff", str(tmp_path / "missing.jsonl"),
            str(tmp_path / "missing.jsonl"),
        ])
        assert code == 2
        assert err


class TestJsonlExportMatchesTrace:
    def test_audit_jsonl_is_canonical(self, audited):
        _, trace = audited["chromium"]
        assert events_to_jsonl(trace.audit) == "".join(
            json.dumps(event.to_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for event in trace.audit
        )
