"""Smoke tests: the runnable examples stay runnable."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def run_cli(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout,
        cwd=EXAMPLES.parent,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Chromium" in result.stdout
        assert "ORIGIN" in result.stdout
        assert "coalesced" in result.stdout

    def test_origin_frame_server(self):
        result = run_example("origin_frame_server.py")
        assert result.returncode == 0, result.stderr
        assert "ORIGIN frame bytes" in result.stdout
        assert "421" in result.stdout
        assert "fail-open" in result.stdout

    def test_middlebox_incident(self):
        result = run_example("middlebox_incident.py")
        assert result.returncode == 0, result.stderr
        assert "FAILED" in result.stdout      # phase 2 breaks
        assert "phase 4" in result.stdout     # and the fix lands

    def test_waterfall_reconstruction(self):
        result = run_example("waterfall_reconstruction.py")
        assert result.returncode == 0, result.stderr
        assert "MEASURED" in result.stdout
        assert "RECONSTRUCTED" in result.stdout
        assert "coalesced" in result.stdout

    def test_coalescing_study_small(self):
        result = run_example("coalescing_study.py", "30")
        assert result.returncode == 0, result.stderr
        assert "Table 1" in result.stdout
        assert "Figure 3" in result.stdout
        assert "certificate plan" in result.stdout

    def test_traffic_study_small(self):
        result = run_example("traffic_study.py", "12", timeout=300)
        assert result.returncode == 0, result.stderr
        assert "What-if" in result.stdout
        assert "baseline" in result.stdout
        assert "ideal-san" in result.stdout
        assert "Figure 8" in result.stdout
        assert "reason-coded decisions" in result.stdout


class TestScenarioFiles:
    @pytest.mark.parametrize("name", sorted(
        path.name for path in EXAMPLES.glob("scenario_*.toml")))
    def test_scenario_resolves(self, name):
        result = run_cli("run", f"examples/{name}", "--dry-run")
        assert result.returncode == 0, result.stderr
        resolved = result.stdout + result.stderr  # --dry-run diags
        assert f"examples/{name} -> repro " in resolved
        if name == "scenario_chaos.toml":
            assert "--schedule examples/faults_demo.toml" in resolved
            assert "--compare-policies" not in resolved

    def test_chaos_demo_schedule_runs(self, tmp_path):
        out = tmp_path / "report.jsonl"
        result = run_cli("chaos", "--schedule",
                         "examples/faults_demo.toml", "--sites", "8",
                         "--seed", "2022", "--shards", "2",
                         "--out", str(out), timeout=300)
        assert result.returncode == 0, result.stderr
        assert "mean blast radius" in result.stdout
        lines = out.read_text().strip().splitlines()
        # Canonical report JSONL: meta + one line per fault + totals.
        assert len(lines) == 6
