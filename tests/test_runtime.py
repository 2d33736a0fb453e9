"""The unified run pipeline: options, scenarios, and ``repro run``."""

import argparse

import pytest

from repro.cli import main
from repro.cli.args import _nonnegative_int, _parse_breakdown, _positive_int
from repro.runtime import (
    InstrumentationOptions,
    ScenarioError,
    load_scenario,
    parse_scenario,
)


class TestValidators:
    def test_positive_int_accepts_one(self):
        assert _positive_int("1") == 1

    def test_positive_int_rejects_zero_and_negative(self):
        for bad in ("0", "-3"):
            with pytest.raises(argparse.ArgumentTypeError,
                               match="must be >= 1"):
                _positive_int(bad)

    def test_positive_int_rejects_garbage(self):
        with pytest.raises(ValueError):
            _positive_int("two")

    def test_nonnegative_int_accepts_zero(self):
        assert _nonnegative_int("0") == 0

    def test_nonnegative_int_rejects_negative(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="must be >= 0"):
            _nonnegative_int("-1")

    def test_parse_breakdown_all_and_order(self):
        assert _parse_breakdown("all") == ["dns", "tls", "validations"]
        assert _parse_breakdown("tls,dns") == ["dns", "tls"]

    def test_parse_breakdown_rejects_unknown(self):
        with pytest.raises(argparse.ArgumentTypeError, match="plt"):
            _parse_breakdown("dns,plt")


class TestInstrumentationOptions:
    def test_defaults_are_inert(self):
        options = InstrumentationOptions()
        assert not options.want_trace
        assert not options.want_audit
        assert not options.live
        assert options.load_rules() == []

    def test_any_instrumentation_forces_live(self):
        assert InstrumentationOptions(trace_out="t.json").live
        assert InstrumentationOptions(metrics=True).live
        assert InstrumentationOptions(audit_out="a.jsonl").live
        assert InstrumentationOptions(force_audit=True).live
        assert InstrumentationOptions(ledger_dir="runs/").live

    def test_from_args_lifts_shared_flags(self):
        ns = argparse.Namespace(trace="t.json", metrics=True,
                                audit=None, ledger="runs/", slo=None)
        options = InstrumentationOptions.from_args(ns)
        assert options.trace_out == "t.json"
        assert options.metrics is True
        assert options.ledger_dir == "runs/"
        assert not options.want_audit

    def test_from_args_tolerates_absent_flags(self):
        options = InstrumentationOptions.from_args(
            argparse.Namespace())
        assert not options.live

    def test_bad_slo_file_exits_2(self, tmp_path, capsys):
        slo = tmp_path / "slo.toml"
        slo.write_text("[[slo]]\nphase = broken\n")
        options = InstrumentationOptions(slo_path=str(slo))
        with pytest.raises(SystemExit) as excinfo:
            options.load_rules()
        assert excinfo.value.code == 2
        assert "slo:" in capsys.readouterr().err


class TestParseScenario:
    def test_flags_render_in_file_order(self):
        scenario = parse_scenario(
            '[run]\ncommand = "traffic"\n'
            '[traffic]\nusers = 40\nmean_visits = 1.5\n'
            '[sinks]\nout = "t.jsonl"\n'
        )
        assert scenario.command == "traffic"
        assert scenario.argv == [
            "traffic", "--users", "40", "--mean-visits", "1.5",
            "--out", "t.jsonl",
        ]

    def test_booleans_become_bare_flags(self):
        scenario = parse_scenario(
            '[run]\ncommand = "crawl"\n'
            '[dataset]\nno_cache = true\nrefresh = false\n'
            '[sinks]\nmetrics = true\n'
        )
        assert scenario.argv == ["crawl", "--no-cache", "--metrics"]

    def test_missing_run_section(self):
        with pytest.raises(ScenarioError, match=r"missing \[run\]"):
            parse_scenario("[traffic]\nusers = 5\n")

    def test_unknown_command(self):
        with pytest.raises(ScenarioError, match="unknown command"):
            parse_scenario('[run]\ncommand = "reportx"\n')

    def test_unquoted_command(self):
        with pytest.raises(ScenarioError, match="quoted"):
            parse_scenario("[run]\ncommand = traffic\n")

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match=r"\[workers\]"):
            parse_scenario('[run]\ncommand = "crawl"\n'
                           "[workers]\ncount = 4\n")

    def test_array_tables_rejected(self):
        with pytest.raises(ScenarioError, match="plain"):
            parse_scenario('[[run]]\ncommand = "crawl"\n')

    def test_jobs_is_not_a_scenario_knob(self):
        with pytest.raises(ScenarioError, match="execution knob"):
            parse_scenario('[run]\ncommand = "traffic"\n'
                           "[traffic]\njobs = 4\n")

    def test_extra_run_keys_rejected(self):
        with pytest.raises(ScenarioError, match="only 'command'"):
            parse_scenario('[run]\ncommand = "crawl"\nretries = 3\n')

    def test_malformed_toml_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario('[run]\ncommand "crawl"\n')

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.toml")


class TestRunCommand:
    def _write(self, tmp_path, text):
        path = tmp_path / "scenario.toml"
        path.write_text(text)
        return str(path)

    def test_dry_run_prints_resolved_argv(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[run]\ncommand = "crawl"\n[dataset]\nsites = 8\n',
        )
        assert main(["run", path, "--dry-run"]) == 0
        captured = capsys.readouterr()
        assert "repro crawl --sites 8" in captured.err
        assert captured.out == ""

    def test_jobs_override_is_appended(self, tmp_path, capsys):
        path = self._write(tmp_path, '[run]\ncommand = "traffic"\n')
        assert main(["run", path, "--jobs", "2", "--dry-run"]) == 0
        assert "--jobs 2" in capsys.readouterr().err

    def test_parse_failure_exits_2_and_runs_nothing(self, tmp_path,
                                                    capsys):
        out = tmp_path / "t.jsonl"
        path = self._write(
            tmp_path,
            '[run]\ncommand = "traffic"\n'
            "[workers]\ncount = 4\n"
            f'[sinks]\nout = "{out}"\n',
        )
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert "run:" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "run: cannot read" in capsys.readouterr().err

    def test_flag_values_hit_the_command_validators(self, tmp_path):
        # Scenario values flow through the same argparse validators
        # as a hand-typed command line; nothing executes on failure.
        path = self._write(
            tmp_path,
            '[run]\ncommand = "traffic"\n[traffic]\nusers = 0\n',
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path])
        assert excinfo.value.code == 2

    def test_zero_sites_exits_2_and_runs_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        path = self._write(
            tmp_path,
            '[run]\ncommand = "crawl"\n[dataset]\nsites = 0\n'
            f'cache_dir = "{cache}"\n',
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --sites: must be >= 1" in captured.err
        assert captured.out == ""
        assert not cache.exists()

    def test_scenario_crawl_matches_direct_invocation(
            self, tmp_path, capsys):
        cache = tmp_path / "cache"
        direct = ["crawl", "--sites", "8", "--seed", "3", "--shards",
                  "2", "--cache-dir", str(cache), "--tables", "1"]
        assert main(direct) == 0
        direct_out = capsys.readouterr().out
        path = self._write(
            tmp_path,
            '[run]\ncommand = "crawl"\n'
            "[dataset]\nsites = 8\nseed = 3\nshards = 2\n"
            f'cache_dir = "{cache}"\n'
            '[render]\ntables = "1"\n',
        )
        assert main(["run", path]) == 0
        captured = capsys.readouterr()
        assert "cache: hit" in captured.err
        assert captured.out == direct_out
