"""Self-test of the benchmark harness at smoke size (16 sites, 8 users,
one repetition).  Plain pytest, outside the tier-1 ``testpaths``::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_harness.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def run_py(*args, out):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *args], capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke")
    done = run_py("--reps", "1", out=out)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads((out / "results.json").read_text()), done.stdout


def test_manifest_names_the_workloads_and_metrics_run_py_emits():
    assert WORKLOAD_NAMES == [w.name for w in wl.WORKLOADS]
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert declared == run.per_layer_units()
    assert ({m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert MANIFEST["paths"] == ["benchmarks/perf"]


def test_every_named_metric_is_present_with_its_unit(smoke):
    _, results, stdout = smoke
    for name in WORKLOAD_NAMES:
        got = results["workloads"][name]
        assert got["correct"], got["problems"]
        for kind in ("end_to_end", "per_layer"):
            for metric in MANIFEST[kind]:
                assert got[kind][metric["name"]]["unit"] == metric["unit"]
                assert metric["name"] in stdout
    assert set(results["derived"]) == {"runtime.parallel_speedup",
                                       "telemetry.overhead_ratio"}


def test_layers_partition_the_traced_run(smoke):
    _, results, _ = smoke
    for name in WORKLOAD_NAMES:
        layers = results["workloads"][name]["per_layer"]
        total = layers["traced.total_s"]["value"]
        summed = sum(m["value"] for key, m in layers.items()
                     if key.startswith("layer.") and key.endswith(".self_s"))
        assert summed == pytest.approx(total, rel=0.01)
        assert layers["layer.unattributed_files"]["value"] == 0
        assert layers["stage.total_s"]["value"] > 0


def test_crawl_workloads_agree_and_only_the_fan_out_decodes(smoke):
    _, results, _ = smoke
    serial, fanout, observed = (results["workloads"][n] for n in wl.CRAWL_TRIO)
    for other in (fanout, observed):
        assert other["digests"]["archive"] == serial["digests"]["archive"]
        assert other["digests"]["stdout"] == serial["digests"]["stdout"]
    assert serial["per_layer"]["stage.har_decode_s"]["value"] == 0
    if (os.cpu_count() or 1) >= 2:
        assert fanout["per_layer"]["stage.har_decode_s"]["value"] > 0
    assert (observed["per_layer"]["layer.telemetry.self_s"]["value"]
            >= 2 * serial["per_layer"]["layer.telemetry.self_s"]["value"])


def test_a_failing_child_fails_every_operation(tmp_path):
    workload = wl.BY_NAME["crawl_serial"]
    rep = run.run_repetition(workload, 2022, 2022, "smoke", tmp_path,
                             argv=["crawl", "--no-such-flag"])
    assert rep.child.code != 0 and not rep.ok
    result = run.WorkloadResult(workload.name, [], reps=[rep], planned_ops=16)
    for ops in (result.simulated_operations(), result.operations()):
        assert ops["failed"] / ops["attempted"] == 1.0
    assert not result.correct


def test_a_tampered_artifact_trips_the_output_check(smoke):
    out, _, _ = smoke
    workload = wl.BY_NAME["traffic_warm"]
    run_dir = out / "work" / workload.name

    def read():
        return wl.read_run(workload, run_dir, run_dir / "stdout.txt", 8)

    before = read()
    assert run.check_identical("t", [before, read()]) == []
    with open(run_dir / "agg.jsonl", "a", encoding="utf-8") as handle:
        handle.write("\n")
    problems = run.check_identical("t", [before, read()])
    assert problems and "aggregate digest" in problems[0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_prints_the_contract_line(tmp_path, trace):
    done = run_py("--workload", "chaos_faulted", "--seed", "3",
                  "--seconds", "1", "--trace", trace, out=tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    declared = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
