"""End-to-end tests of the run ledger through the CLI.

Small crawls, real records: the committed golden record, the
``report``/``compare`` surfaces and their exit codes, and SLO gating.
Byte identity across ``--jobs``, and the guarantee that ledger
instrumentation never perturbs decisions, are rows of
tests/data/digests.json.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.ledger import load_record

#: One full run record, committed: run id, fingerprint, every phase
#: histogram and the headline of GOLDEN_CRAWL.  Records hold only
#: simulated-clock latencies, so the file is machine-independent and
#: any drift is a behaviour change.  Refresh it by copying the record
#: GOLDEN_CRAWL writes over it.
GOLDEN = (pathlib.Path(__file__).resolve().parent
          / "data" / "ledger_golden.jsonl")
GOLDEN_CRAWL = ["crawl", "--sites", "60", "--seed", "2022",
                "--shards", "2", "--no-cache", "--tables", "1"]

CRAWL = ["crawl", "--sites", "8", "--seed", "3", "--shards", "2",
         "--no-cache", "--tables", "1"]
TRAFFIC = ["traffic", "--users", "30", "--sites", "8",
           "--duration", "10", "--shards", "2"]


def _crawl_record(tmp_path, name, extra=(), crawl=CRAWL):
    ledger = tmp_path / name
    argv = crawl + ["--ledger", str(ledger), *extra]
    assert main(argv) == 0
    (path,) = ledger.glob("*.jsonl")
    return path


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One shared baseline crawl record (read-only across tests)."""
    return _crawl_record(tmp_path_factory.mktemp("baseline"), "a")


class TestCrawlLedger:
    def test_record_contents(self, baseline):
        record = load_record(baseline)
        assert record.kind == "crawl"
        assert record.meta["sites"] == 8
        assert record.meta["shards"] == 2
        assert "jobs" not in record.meta
        assert record.headline["pages_attempted"] == 8
        names = {doc["name"] for doc in record.phases}
        assert {"phase.dns", "phase.connect", "phase.tls",
                "phase.ttfb"} <= names

    def test_slo_verdicts_stored(self, tmp_path, capsys):
        slo = tmp_path / "slo.toml"
        slo.write_text(
            '[[slo]]\nname = "dns-lenient"\nphase = "dns"\n'
            'quantile = 0.9\nmax_ms = 100000\n'
        )
        path = _crawl_record(tmp_path, "a", extra=["--slo", str(slo)])
        record = load_record(path)
        assert [row["name"] for row in record.slo] == ["dns-lenient"]
        assert record.slo[0]["ok"] is True

    def test_bad_slo_file_aborts_before_crawling(self, tmp_path):
        slo = tmp_path / "slo.toml"
        slo.write_text("[[slo]]\nphase = broken\n")
        with pytest.raises(SystemExit) as excinfo:
            main(CRAWL + ["--ledger", str(tmp_path / "l"),
                          "--slo", str(slo)])
        assert excinfo.value.code == 2
        assert not (tmp_path / "l").exists()


@pytest.fixture(scope="module")
def golden_rerun(tmp_path_factory):
    return _crawl_record(tmp_path_factory.mktemp("golden"), "ledger",
                         crawl=GOLDEN_CRAWL)


class TestLedgerGolden:
    def test_record_equals_golden_line_for_line(self, golden_rerun):
        """Everything but ``git`` (which names the checkout, not the
        run) is pinned -- the run id too, so the canonical
        fingerprint spelling cannot drift unnoticed."""
        assert golden_rerun.name == "crawl-ae3ff51f1c17.jsonl"
        new = golden_rerun.read_text().splitlines()
        golden = GOLDEN.read_text().splitlines()

        def meta(line):
            doc = json.loads(line)
            assert doc["t"] == "meta"
            del doc["git"]
            return doc

        assert meta(new[0]) == meta(golden[0])
        assert new[1:] == golden[1:]

    def test_compare_against_golden_is_clean(self, golden_rerun,
                                             capsys):
        assert main(["compare", str(GOLDEN), str(golden_rerun)]) == 0
        assert "clean" in capsys.readouterr().out


class TestReportCommand:
    def test_report_renders_both_formats(self, baseline, capsys):
        assert main(["report", str(baseline)]) == 0
        ascii_out = capsys.readouterr().out
        assert "phase latency" in ascii_out
        assert main(["report", baseline.stem, "--ledger",
                     str(baseline.parent), "--format",
                     "markdown"]) == 0
        assert "## Run" in capsys.readouterr().out

    def test_report_check_gates_on_slo(self, baseline, tmp_path,
                                       capsys):
        path = baseline
        slo = tmp_path / "slo.toml"
        slo.write_text(
            '[[slo]]\nname = "impossible"\nphase = "dns"\n'
            'quantile = 0.5\nmax_ms = 0.001\n'
        )
        assert main(["report", str(path), "--slo", str(slo),
                     "--check"]) == 1
        assert main(["report", str(path), "--slo", str(slo)]) == 0

    def test_missing_record_exits_2(self, capsys):
        assert main(["report", "no-such-run"]) == 2


class TestCompareCommand:
    def test_degraded_run_regresses_naming_phase(self, baseline,
                                                 tmp_path, capsys):
        slow = _crawl_record(tmp_path, "slow",
                             extra=["--dns-latency", "400"])
        assert main(["compare", str(baseline), str(slow)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "phase.dns p50" in out

    def test_run_ids_resolve_in_ledger_dir(self, baseline, capsys):
        assert main(["compare", baseline.stem, baseline.stem,
                     "--ledger", str(baseline.parent)]) == 0

    def test_missing_record_exits_2(self, capsys):
        assert main(["compare", "nope", "also-nope"]) == 2

    def test_cross_kind_records_incomparable(self, baseline,
                                             tmp_path, capsys):
        crawl = baseline
        traffic_ledger = tmp_path / "t"
        assert main(TRAFFIC + ["--ledger", str(traffic_ledger)]) == 0
        (traffic_path,) = traffic_ledger.glob("*.jsonl")
        assert main(["compare", str(crawl), str(traffic_path)]) == 2
        assert "incomparable" in capsys.readouterr().out


class TestTrafficLedger:
    def test_record_contents(self, tmp_path, capsys):
        assert main(TRAFFIC + ["--ledger", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("*.jsonl")
        record = load_record(path)
        assert record.kind == "traffic"
        assert record.meta["scenario"] == "baseline"
        cohorts = {doc["labels"].get("cohort")
                   for doc in record.phases}
        assert "chromium" in cohorts

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_out = tmp_path / "spans.jsonl"
        assert main(TRAFFIC + ["--trace", str(trace_out),
                               "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics -- histograms" in out
        assert "phase.ttfb" in out
        assert trace_out.exists()
        first = trace_out.read_text().splitlines()[0]
        assert first.startswith("{")

    def test_chrome_trace_export(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        assert main(TRAFFIC + ["--trace", str(trace_out)]) == 0
        assert trace_out.read_text().startswith("{")


class TestLedgerDoesNotPerturbDecisions:
    def test_audit_diff_clean_ledgered_vs_unledgered(self, tmp_path,
                                                     capsys):
        plain = tmp_path / "plain.jsonl"
        ledgered = tmp_path / "ledgered.jsonl"
        assert main(CRAWL + ["--audit", str(plain)]) == 0
        assert main(CRAWL + ["--audit", str(ledgered), "--ledger",
                             str(tmp_path / "ledger")]) == 0
        assert main(["audit-diff", str(plain), str(ledgered)]) == 0
