"""CLI smoke tests (tiny scales; each command end to end)."""

import argparse
import io
import json
import pathlib
import subprocess
import sys
import warnings

import pytest

from repro import __version__
from repro.cli import POLICIES, _parse_alpn, _parse_tables, build_parser, main
from repro.cli.invoke import crawl_definition
from repro.dataset import shard as shard_module
from repro.dataset.crawler import CrawlParams
from repro.dataset.generator import DatasetConfig

FAULTS_DEMO = str(pathlib.Path(__file__).resolve().parent.parent
                  / "examples" / "faults_demo.toml")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_crawl_defaults(self):
        args = build_parser().parse_args(["crawl"])
        assert args.sites == 150
        assert args.policy == "chromium"
        assert args.jobs == 1
        assert args.shards == 0
        assert args.tables == ["1", "2", "3"]
        assert args.no_cache is False
        assert args.refresh is False

    def test_policy_choices_cover_registry(self):
        for name in POLICIES:
            args = build_parser().parse_args(["crawl", "--policy", name])
            assert args.policy == name

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--policy", "safari"])

    def test_bad_tables_rejected_before_crawling(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--tables", "1,9"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--jobs", "0"])

    @pytest.mark.parametrize("command", ["crawl", "model", "explain",
                                         "privacy", "chaos", "traffic"])
    @pytest.mark.parametrize("flag,value", [("--sites", "0"),
                                            ("--shards", "-1")])
    def test_bad_sites_or_shards_exit_2(self, command, flag, value,
                                        capsys):
        # Rejected by the flag's validator before anything is planned:
        # no ZeroDivisionError from the shard planner, no traceback.
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value, "--no-cache"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be >=" in captured.err
        assert captured.out == ""

    def test_deploy_phases(self):
        args = build_parser().parse_args(["deploy", "--phase", "ip"])
        assert args.phase == "ip"

    def test_crawl_pipeline_flags(self):
        args = build_parser().parse_args(
            ["model", "--jobs", "4", "--shards", "8",
             "--cache-dir", "/tmp/x", "--refresh"]
        )
        assert args.jobs == 4
        assert args.shards == 8
        assert args.cache_dir == "/tmp/x"
        assert args.refresh is True


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestCrawlImports:
    def test_crawl_loads_only_the_coalescing_half_of_the_model(self):
        """A crawl's fold needs ``repro.core.coalescing`` (and its
        grouping); the rest of the §4 model stays unimported, so it
        costs a crawl's start-up nothing."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['crawl', '--sites', '2', '--no-cache'])\n"
            "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        )
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        loaded = set(run.stderr.splitlines()[-1].split())
        assert "repro.core.coalescing" in loaded
        assert not loaded & {"repro.core.certplan", "repro.core.predictions",
                             "repro.core.privacy", "repro.core.timeline"}


class TestParseAlpn:
    def test_default_is_h2_only(self):
        args = build_parser().parse_args(["crawl"])
        assert args.alpn == "h2"

    def test_h2_h3_accepted(self):
        args = build_parser().parse_args(["crawl", "--alpn", "h2,h3"])
        assert args.alpn == "h2,h3"

    def test_canonical_ordering(self):
        # Offer order is normalized so cache keys cannot fork on it.
        assert _parse_alpn("h3,h2") == "h2,h3"
        assert _parse_alpn(" h2 , h3 ") == "h2,h3"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError, match="spdy"):
            _parse_alpn("h2,spdy")

    def test_h2_is_mandatory(self):
        # h3 endpoints are discovered over h2 (Alt-Svc / HTTPS RRs).
        with pytest.raises(argparse.ArgumentTypeError,
                           match="must include h2"):
            _parse_alpn("h3")

    def test_bad_alpn_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--alpn", "h3"])


class TestCrawlDefinition:
    @pytest.mark.parametrize("argv", [
        ["crawl", "--sites", "40", "--seed", "9"],
        ["chaos", "--schedule", FAULTS_DEMO, "--policy", "chromium",
         "--sites", "40", "--seed", "9"],
    ])
    def test_the_cli_spells_no_knob_the_default_lacks(self, argv):
        """A default command line crawls with ``CrawlParams()``: the
        CLI sets no crawl knob of its own."""
        args = build_parser().parse_args(argv)
        assert crawl_definition(args, args.policy) == (
            DatasetConfig(site_count=40, seed=9), CrawlParams())


class TestParseTables:
    def test_default_selection(self):
        assert _parse_tables("1,2,3") == ["1", "2", "3"]

    def test_all(self):
        assert _parse_tables("all") == ["1", "2", "3", "4", "5", "6", "7"]

    def test_subset_rendered_in_canonical_order(self):
        assert _parse_tables("7, 1,4") == ["1", "4", "7"]

    def test_unknown_table_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_tables("1,9")


def _no_shards(*_args, **_kwargs):
    raise AssertionError("a shard ran")


class TestUnwritableArtifacts:
    """Every file a run names is opened, as ``OUT.tmp``, before the
    first shard: a path that cannot be written exits 2 with one line
    naming it, having simulated nothing, stored no cache entry and
    left no ``.tmp`` -- not even of the artifacts opened before it."""

    CRAWL = ["crawl", "--sites", "40", "--seed", "7"]
    TRAFFIC = ["traffic", "--users", "10", "--sites", "6"]
    CHAOS = ["chaos", "--schedule", FAULTS_DEMO, "--sites", "12"]

    @pytest.mark.parametrize("argv,flag,label", [
        (CRAWL, "--audit", "audit"),
        (CRAWL, "--trace", "trace"),
        (["explain", "--sites", "12"], "--audit", "audit"),
        (TRAFFIC, "--out", "aggregate"),
        (TRAFFIC, "--audit", "audit"),
        (CHAOS, "--out", "report"),
        (CHAOS, "--audit", "audit"),
    ], ids=["crawl-audit", "crawl-trace", "explain-audit", "traffic-out",
            "traffic-audit", "chaos-out", "chaos-audit"])
    def test_missing_directory_exits_2_before_any_shard(
        self, tmp_path, monkeypatch, capsys, argv, flag, label
    ):
        monkeypatch.setattr(shard_module, "run_shards", _no_shards)
        bad = tmp_path / "missing" / "out.jsonl"
        # A good trace artifact opens first, then must be removed too.
        good = [] if flag == "--trace" else [
            "--trace", str(tmp_path / "t.jsonl")]
        cache = [] if argv is self.TRAFFIC else [
            "--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *cache, *good, flag, str(bad)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            f"{label}: cannot write {bad}: No such file or directory"
        assert "shards:" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.CRAWL, "--no-cache", "--audit", str(tmp_path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == \
            f"audit: cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_run_that_raises_leaves_no_tmp(self, tmp_path, monkeypatch,
                                             capsys):
        real = shard_module.crawl_shard

        def second_raises(spec, *args):
            if spec.index == 1:
                raise RuntimeError("shard 1 died")
            return real(spec, *args)

        monkeypatch.setattr(shard_module, "crawl_shard", second_raises)
        with pytest.raises(RuntimeError, match="shard 1 died"):
            main(["crawl", "--sites", "8", "--shards", "2",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--trace", str(tmp_path / "t.jsonl"),
                  "--audit", str(tmp_path / "a.jsonl")])
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cache"]


class TestCommands:
    def test_crawl_command(self, capsys, tmp_path):
        assert main(["crawl", "--sites", "25", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        out = captured.out
        # Diagnostics are stderr-only; stdout stays clean table output.
        assert "cache: miss" in captured.err
        assert "cache:" not in out
        assert "shards:" in captured.err
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Table 3" in out

    def test_crawl_tables_subset(self, capsys, tmp_path):
        assert main(["crawl", "--sites", "25", "--seed", "3",
                     "--cache-dir", str(tmp_path),
                     "--tables", "1,7"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 7" in out
        assert "Table 2" not in out
        assert "Table 3" not in out

    def test_crawl_cache_hit_second_invocation(self, capsys, tmp_path):
        argv = ["crawl", "--sites", "25", "--seed", "3",
                "--cache-dir", str(tmp_path), "--tables", "1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "cache: miss, stored" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cache: hit" in second.err
        # Identical characterization either way.
        assert second.out == first.out

    def test_model_command(self, capsys, tmp_path):
        assert main(["model", "--sites", "25", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "headline" in out
        assert "certificates needing no change" in out

    def test_model_uses_crawl_cache(self, capsys, tmp_path):
        argv = ["model", "--sites", "25", "--seed", "3",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache: hit" in capsys.readouterr().err

    def test_model_builds_each_world_once(self, capsys, monkeypatch,
                                          tmp_path):
        """A miss builds each shard's world once, for its crawl; a hit
        builds none, since the certificate plan reads the site plan."""
        built = []
        real = shard_module.build_world

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_module, "build_world", counting)
        argv = ["model", "--sites", "24", "--seed", "3", "--shards", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "cache: miss" in capsys.readouterr().err
        assert len(built) == 2
        assert main(argv) == 0
        assert "cache: hit" in capsys.readouterr().err
        assert len(built) == 2

    def test_model_default_alpn_has_no_protocol_rows(self, capsys,
                                                     tmp_path):
        assert main(["model", "--sites", "25", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # h2-only output stays exactly the pre-h3 report.
        assert "Per-protocol breakdown" not in out

    def test_model_h3_alpn_prints_protocol_rows(self, capsys,
                                                tmp_path):
        assert main(["model", "--sites", "12", "--seed", "2022",
                     "--alpn", "h2,h3",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-protocol breakdown" in out
        assert "h3" in out
        assert "Handshake ms (total)" in out

    def test_explain_h3_alpn_lists_protocol_events(self, capsys,
                                                   tmp_path):
        assert main(["explain", "--sites", "12", "--seed", "2022",
                     "--alpn", "h2,h3", "--pages", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Protocol events" in out
        assert "QUIC_HANDSHAKE_1RTT" in out
        assert "HTTPS_RR_H3" in out

    @pytest.mark.parametrize("command", ["crawl", "model"])
    def test_a_crawl_with_no_successful_page(self, capsys, tmp_path,
                                             command):
        """Seed 2's one site fails: the §4 reductions of no page are
        0.0 -- strict JSON in the ledger, ``0.00%`` on stdout -- and no
        median of an empty list warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--sites", "1", "--seed", "2",
                         "--no-cache", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        (path,) = tmp_path.iterdir()
        meta, headline = path.read_text().splitlines()[:2]

        def refuse(constant):
            raise ValueError(f"{constant} in the ledger")

        metrics = json.loads(headline, parse_constant=refuse)["metrics"]
        assert metrics["pages_succeeded"] == 0
        assert metrics["dns_reduction"] == 0.0
        assert metrics["validation_reduction"] == 0.0
        assert "nan" not in out
        if command == "model":
            assert ("validation reduction 0.00%, DNS reduction 0.00%"
                    in out)

    def test_deploy_command(self, capsys):
        assert main(["deploy", "--sites", "80", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "passive reduction" in out

    def test_privacy_command(self, capsys, tmp_path):
        assert main(["privacy", "--sites", "25", "--seed", "3",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Privacy" in out
        assert "signal reduction" in out


class TestShardLines:
    """A run's one per-shard callback: the ``shards: k/n`` stderr
    line after each merged shard, the same at any ``--jobs``, for
    every pipeline workload, watched or not.  A cache hit merges no
    shard and prints none."""

    @staticmethod
    def shard_lines(err):
        return [line for line in err.splitlines()
                if line.startswith("shards:")]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crawl_miss_then_hit(self, tmp_path, capsys, jobs):
        argv = ["crawl", "--sites", "6", "--seed", "3", "--shards", "3",
                "--cache-dir", str(tmp_path), "--tables", "1",
                "--jobs", jobs]
        assert main(argv) == 0
        assert self.shard_lines(capsys.readouterr().err) == \
            ["shards: 1/3", "shards: 2/3", "shards: 3/3"]
        assert main(argv) == 0
        assert self.shard_lines(capsys.readouterr().err) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv,count", [
        (["crawl", "--sites", "6", "--seed", "3", "--shards", "3",
          "--tables", "1", "--audit", "{tmp}/a.jsonl"], 3),
        (["traffic", "--users", "4", "--sites", "4", "--duration", "5",
          "--shards", "2"], 2),
        (["chaos", "--schedule", FAULTS_DEMO, "--sites", "6",
          "--shards", "2"], 2),
    ], ids=["live-crawl", "traffic", "chaos"])
    def test_every_workload(self, tmp_path, capsys, jobs, argv, count):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        cache = [] if argv[0] == "traffic" else [
            "--cache-dir", str(tmp_path / "cache")]
        assert main([*argv, *cache, "--jobs", jobs]) == 0
        assert self.shard_lines(capsys.readouterr().err) == \
            [f"shards: {done}/{count}" for done in range(1, count + 1)]

    @pytest.fixture
    def tty(self, monkeypatch):
        """Every heartbeat a run starts draws, into its own buffer."""
        from repro.obs.heartbeat import Heartbeat
        from repro.runtime import workloads

        streams = []

        def on_a_tty():
            streams.append(io.StringIO())
            return Heartbeat(stream=streams[-1], enabled=True)

        monkeypatch.setattr(workloads, "Heartbeat", on_a_tty)
        return streams

    def test_on_a_tty_a_watched_run_draws_the_heartbeat_instead(
        self, tmp_path, capsys, tty
    ):
        assert main(["crawl", "--sites", "6", "--seed", "3",
                     "--shards", "3", "--no-cache", "--tables", "1",
                     "--audit", str(tmp_path / "a.jsonl")]) == 0
        assert self.shard_lines(capsys.readouterr().err) == []
        (stream,) = tty
        assert "shards 3/3" in stream.getvalue()

    def test_on_a_tty_an_unwatched_run_prints_its_lines(
        self, capsys, tty
    ):
        assert main(["crawl", "--sites", "6", "--seed", "3",
                     "--shards", "3", "--no-cache", "--tables", "1"]) == 0
        assert self.shard_lines(capsys.readouterr().err) == \
            ["shards: 1/3", "shards: 2/3", "shards: 3/3"]
        assert all(stream.getvalue() == "" for stream in tty)


class TestSweepsRefuseArtifacts:
    """A policy sweep runs one simulation per policy and keeps no
    outcome, so a flag naming an artifact or gate is refused: exit 2
    with one line naming the flags, before any shard runs."""

    @pytest.mark.parametrize("argv,line", [
        (["chaos", "--sites", "6", "--schedule", FAULTS_DEMO,
          "--compare-policies", "--out", "{tmp}/x", "--audit", "{tmp}/y",
          "--ledger", "{tmp}/d"],
         "chaos: --out, --audit, --ledger cannot be used with "
         "--compare-policies"),
        (["traffic", "--what-if", "--out", "{tmp}/x", "--audit", "{tmp}/y"],
         "traffic: --out, --audit cannot be used with --what-if"),
        (["traffic", "--what-if", "--trace", "{tmp}/t", "--metrics",
          "--slo", "{tmp}/s.toml"],
         "traffic: --trace, --metrics, --slo cannot be used with "
         "--what-if"),
    ], ids=["chaos", "traffic-out-audit", "traffic-trace-metrics-slo"])
    def test_exits_2_naming_the_flags(self, tmp_path, monkeypatch, capsys,
                                      argv, line):
        monkeypatch.setattr(shard_module, "run_shards", _no_shards)
        with pytest.raises(SystemExit) as excinfo:
            main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{line}: the sweep writes no artifact\n"
        assert list(tmp_path.iterdir()) == []
