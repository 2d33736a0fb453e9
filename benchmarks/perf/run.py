"""The repository's benchmark: five workloads, measured end to end
from outside `python -m repro` and layer by layer from one traced run
each.  See README.md in this directory for what every number means.

Two ways to call it.

By hand, everything at once::

    python benchmarks/perf/run.py [--seed 2022] [--world 2022] [--reps 5]
                                  [--workload NAME ...] [--out DIR]

runs every workload (set-up runs, timed repetitions, one traced run),
checks the outputs, prints every metric by name with its unit and
writes ``DIR/results.json`` plus ``DIR/trace-<workload>.jsonl``.

By the benchmark driver, one workload and one kind of metric per call::

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``).

The load is a closed loop with one client: a repetition is a fresh
child process, started only after the previous one has exited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import traced  # noqa: E402  (sibling module; imports nothing from repro)
from compare import quartiles  # noqa: E402
import workloads as wl  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"

#: A child that runs longer than this is killed and counted as failed;
#: the slowest child (the traced crawl_observed) takes about 15 s.
CHILD_TIMEOUT_S = 150.0

#: Repetitions are never cut below this, whatever ``--seconds`` says.
MIN_REPS = 3
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "pages_per_s": "pages/s", "cpu_ms_per_page": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric this benchmark emits, with its unit."""
    units: Dict[str, str] = {"failed_share": "ratio"}
    for layer in traced.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.calls"] = "count"
    units["layer.unattributed_files"] = "count"
    for stage in traced.STAGES:
        units[f"stage.{stage}_s"] = "s"
    for name in wl.SIM_COUNTS:
        units[f"sim.{name}"] = "count"
    units["traced.total_s"] = "s"
    units["traced.overhead_ratio"] = "ratio"
    return units


# -- running one child --------------------------------------------------------

@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(cmd: Sequence[str], stdout: Path, stderr: Path,
              work: Path) -> ChildRun:
    """Run ``cmd`` from the repository root and wait for it.

    Wall time is spawn to exit; CPU time and peak resident set cover
    the child and every descendant it waited for (``os.wait4``).  The
    child leads its own process group so a hang can be killed whole.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Anything the program writes by default stays inside the checkout.
    env["TMPDIR"] = str(work)
    env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    env.pop("REPRO_CRAWL_CACHE", None)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=env, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Repetition:
    """One child of a workload and what it left behind."""

    child: ChildRun
    reading: Optional[wl.RunReading] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _tail(path: Path, lines: int = 3) -> str:
    text = path.read_text("utf-8", "replace").strip().splitlines()
    return " | ".join(text[-lines:])


def run_dir_of(out: Path, workload: wl.Workload) -> Path:
    return out / "work" / workload.name


def run_repetition(workload: wl.Workload, world: int, seed: int, size: str,
                   out: Path, trace_prefix: Optional[Path] = None,
                   argv: Optional[List[str]] = None) -> Repetition:
    """Run the workload's command once in an emptied run directory.

    Every repetition reuses the same directory so the argv, and any
    path an artifact echoes, is the same each time.  With
    ``trace_prefix`` the command runs inside ``traced.py``.  ``argv``
    replaces the workload's own command (the self-test's failing child).
    """
    run_dir = run_dir_of(out, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if argv is None:
        argv = workload.argv(world, seed, size,
                             os.path.relpath(run_dir, ROOT))
    if trace_prefix is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"),
               str(trace_prefix), "--", *argv]
    stdout, stderr = run_dir / "stdout.txt", run_dir / "stderr.txt"
    child = run_child(cmd, stdout, stderr, run_dir)
    rep = Repetition(child)
    if child.code != 0:
        rep.problems.append(f"exit code {child.code}: {_tail(stderr)}")
        return rep
    rep.reading = wl.read_run(workload, run_dir, stdout,
                              wl.planned_pages(workload, size))
    rep.problems.extend(rep.reading.problems)
    return rep


# -- checks -------------------------------------------------------------------

def check_identical(label: str, readings: Sequence[wl.RunReading]) -> List[str]:
    """Digests and simulated counts must repeat exactly."""
    problems = []
    first = readings[0]
    for index, other in enumerate(readings[1:], start=2):
        for name in sorted(set(first.digests) | set(other.digests)):
            if first.digests.get(name) != other.digests.get(name):
                problems.append(
                    f"{label}: {name} digest of run {index} differs from run 1")
        for name, value in first.sim.items():
            if other.sim[name] != value:
                problems.append(
                    f"{label}: sim.{name} is {other.sim[name]} in run "
                    f"{index}, {value} in run 1")
    return problems


def check_crawl_trio(results: Dict[str, "WorkloadResult"]) -> List[str]:
    """--jobs and the collectors must not change the crawl: one archive,
    one stdout, one failure count on all three crawl workloads."""
    have = [results[name] for name in wl.CRAWL_TRIO
            if name in results and results[name].reading is not None]
    problems = []
    for other in have[1:]:
        base = have[0]
        for name in ("archive", "stdout"):
            if other.reading.digests[name] != base.reading.digests[name]:
                problems.append(
                    f"{other.name}: {name} digest differs from {base.name}")
        if (other.reading.attempted, other.reading.failed) != (
                base.reading.attempted, base.reading.failed):
            problems.append(
                f"{other.name}: {other.reading.failed}/"
                f"{other.reading.attempted} failed requests, {base.name} "
                f"has {base.reading.failed}/{base.reading.attempted}")
    return problems


# -- measuring one workload ---------------------------------------------------

@dataclass
class WorkloadResult:
    name: str
    argv: List[str]
    reps: List[Repetition] = field(default_factory=list)
    setup_walls: List[float] = field(default_factory=list)
    traced_rep: Optional[Repetition] = None
    rollup: Optional[dict] = None
    problems: List[str] = field(default_factory=list)
    #: Operations per repetition when no repetition could be read.
    planned_ops: int = 1

    @property
    def reading(self) -> Optional[wl.RunReading]:
        for rep in [*self.reps, self.traced_rep]:
            if rep is not None and rep.reading is not None:
                return rep.reading
        return None

    def runs(self) -> List[Repetition]:
        return self.reps + ([self.traced_rep] if self.traced_rep else [])

    def all_problems(self) -> List[str]:
        return self.problems + [p for rep in self.runs()
                                for p in rep.problems]

    @property
    def correct(self) -> bool:
        return not self.all_problems()

    def operations(self) -> Dict[str, int]:
        """What the result line reports: the simulated operations of
        every run made, of which those of a run that crashed or failed
        a check have failed.  A modelled failure is a correct output of
        a deterministic simulator; it is reported as ``failed_share``."""
        reading = self.reading
        per_run = reading.attempted if reading else self.planned_ops
        runs = self.runs()
        bad = len(runs) if self.problems else sum(not r.ok for r in runs)
        return {"attempted": per_run * len(runs), "failed": per_run * bad}

    def simulated_operations(self) -> Dict[str, int]:
        """The same, plus the operations the simulation itself failed
        in the good runs (a request that ends without a 2xx/3xx status,
        a visit that does not complete)."""
        ops = self.operations()
        if not self.problems:
            ops["failed"] += sum(rep.reading.failed for rep in self.runs()
                                 if rep.ok)
        return ops

    # -- metrics --

    def end_to_end(self) -> Dict[str, dict]:
        if not self.reps:
            return {}
        pages = self.reading.sim["pages"] if self.reading else self.planned_ops
        samples = {
            "pages_per_s": [pages / rep.child.wall_s for rep in self.reps],
            "cpu_ms_per_page": [rep.child.cpu_s * 1000.0 / pages
                                for rep in self.reps],
            "peak_rss_mb": [rep.child.rss_mb for rep in self.reps],
        }
        if self.setup_walls:
            samples["setup_s"] = list(self.setup_walls)
        return {name: summarize(values, END_TO_END_UNITS[name])
                for name, values in samples.items()}

    def per_layer(self) -> Dict[str, dict]:
        if self.rollup is None or self.traced_rep is None:
            return {}
        values: Dict[str, float] = {}
        ops = self.simulated_operations()
        values["failed_share"] = ops["failed"] / ops["attempted"]
        for layer in traced.LAYERS:
            values[f"layer.{layer}.self_s"] = self.rollup["layer_self_s"][layer]
            values[f"layer.{layer}.calls"] = self.rollup["layer_calls"][layer]
        values["layer.unattributed_files"] = len(
            self.rollup["unattributed_files"])
        for stage in traced.STAGES:
            values[f"stage.{stage}_s"] = self.rollup["stages"][stage]
        reading = self.traced_rep.reading or self.reading
        for name in wl.SIM_COUNTS:
            values[f"sim.{name}"] = reading.sim[name] if reading else 0
        values["traced.total_s"] = self.rollup["profile_total_s"]
        untraced = [rep.child.wall_s for rep in self.reps]
        values["traced.overhead_ratio"] = (
            self.traced_rep.child.wall_s / statistics.median(untraced)
            if untraced else 0.0)
        units = per_layer_units()
        return {name: {"value": value, "unit": units[name]}
                for name, value in values.items()}


def summarize(values: List[float], unit: str) -> dict:
    q1, _, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1,
            "q3": q3, "n": len(values), "samples": values}


def measure(workload: wl.Workload, world: int, seed: int, size: str,
            out: Path, reps: Optional[int], seconds: Optional[float],
            untraced: bool, trace: bool, setup_runs: int) -> WorkloadResult:
    """Set-up runs, timed repetitions, then the traced run."""
    run_dir = os.path.relpath(run_dir_of(out, workload), ROOT)
    result = WorkloadResult(
        workload.name, workload.argv(world, seed, size, run_dir),
        planned_ops=wl.planned_pages(workload, size))

    if untraced:
        for _ in range(setup_runs):
            rep = run_repetition(workload, world, seed, "setup", out)
            result.setup_walls.append(rep.child.wall_s)
            result.problems.extend(f"set-up run: {p}" for p in rep.problems)

    def wanted(done: int, elapsed: float) -> bool:
        if not untraced:
            # The traced run still needs one plain run beside it, for
            # the tracing overhead and the output comparison.
            return done < 1
        if reps is not None:
            return done < reps
        return done < MIN_REPS or elapsed < seconds

    started = time.perf_counter()
    while wanted(len(result.reps), time.perf_counter() - started):
        result.reps.append(run_repetition(workload, world, seed, size, out))

    if trace:
        prefix = out / f"trace-{workload.name}"
        result.traced_rep = run_repetition(workload, world, seed, size, out,
                                           trace_prefix=prefix)
        if result.traced_rep.child.code == 0:
            with open(f"{prefix}.json", "r", encoding="utf-8") as handle:
                result.rollup = json.load(handle)
            result.problems.extend(check_rollup(workload, result.rollup))

    readings = [rep.reading for rep in result.runs() if rep.reading]
    if len(readings) > 1:
        result.problems.extend(check_identical(workload.name, readings))
    return result


def check_rollup(workload: wl.Workload, rollup: dict) -> List[str]:
    problems = []
    total = rollup["profile_total_s"]
    layer_sum = sum(rollup["layer_self_s"].values())
    if abs(layer_sum - total) > 0.01 * total:
        problems.append(
            f"{workload.name}: layer self times sum to {layer_sum:.3f} s, "
            f"profile total is {total:.3f} s")
    for path in rollup["unattributed_files"]:
        print(f"warning: src/repro/{path} matches no layer rule",
              file=sys.stderr)
    return problems


# -- run context --------------------------------------------------------------

def _count_lines(directory: Path) -> int:
    total = 0
    for path in directory.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def run_context(seed: int, world: int) -> dict:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "seed": seed, "world": world, "nproc": nproc,
        "python": platform.python_version(),
        "load1_at_start": load1, "noisy": load1 > 0.5 * nproc,
        "git_commit": commit,
        "src_lines": _count_lines(ROOT / "src"),
        "tests_lines": _count_lines(ROOT / "tests"),
    }


# -- output -------------------------------------------------------------------

def print_workload(result: WorkloadResult) -> None:
    print(f"\n== {result.name}: repro {' '.join(result.argv)}")
    for name, m in result.end_to_end().items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']:8s} "
              f"median of {m['n']}, quartiles {m['q1']:.4f} .. {m['q3']:.4f}")
    ops = result.simulated_operations()
    print(f"  {'failed / attempted':28s} {ops['failed']:>7d} / "
          f"{ops['attempted']:<6d} simulated operations over "
          f"{len(result.runs())} runs")
    layers = result.per_layer()
    if layers:
        pids = result.rollup["worker_pids"]
        if pids:
            print(f"  (traced run: stage spans merged from {len(pids)} worker "
                  "processes; layer.* covers the parent process only)")
        for name, m in layers.items():
            shown = (f"{m['value']:14d}" if m["unit"] == "count"
                     else f"{m['value']:14.4f}")
            print(f"  {name:28s} {shown} {m['unit']}")
    reading = result.reading
    if reading:
        for name, digest in sorted(reading.digests.items()):
            print(f"  digest.{name:21s} {digest}")
    for problem in result.all_problems():
        print(f"  FAILED CHECK: {problem}")


def derived(results: Dict[str, WorkloadResult]) -> Dict[str, dict]:
    """Ratios between workloads, each with its base."""
    def pages_per_s(name):
        e2e = results[name].end_to_end() if name in results else {}
        return e2e.get("pages_per_s", {}).get("value")

    out = {}
    serial = pages_per_s("crawl_serial")
    for name, top, base, base_name in (
            ("runtime.parallel_speedup", pages_per_s("crawl_fanout"),
             serial, "crawl_serial"),
            ("telemetry.overhead_ratio", serial,
             pages_per_s("crawl_observed"), "crawl_observed")):
        if top and base:
            out[name] = {"value": top / base, "unit": "ratio",
                         "base": f"{base:.4f} pages/s ({base_name})"}
    return out


def results_document(context: dict, results: Dict[str, WorkloadResult],
                     problems: List[str]) -> dict:
    doc = {"context": context, "workloads": {}, "derived": derived(results),
           "problems": problems}
    for name, result in results.items():
        reading = result.reading
        doc["workloads"][name] = {
            "argv": result.argv,
            "correct": result.correct,
            "operations": result.simulated_operations(),
            "end_to_end": result.end_to_end(),
            "per_layer": result.per_layer(),
            "digests": reading.digests if reading else {},
            "problems": result.all_problems(),
        }
    return doc


def load_manifest() -> dict:
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        return json.load(handle)


def contract_line(result: WorkloadResult, trace: bool) -> str:
    """The driver's result line; refuses to print a metric set other
    than the one BENCHMARK.json declares."""
    manifest = load_manifest()
    declared = manifest["per_layer" if trace else "end_to_end"]
    measured = result.per_layer() if trace else result.end_to_end()
    metrics = {}
    for entry in declared:
        got = measured.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise SystemExit(
                f"metric {entry['name']} ({entry['unit']}) is declared in "
                f"BENCHMARK.json but was not measured")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(measured) - set(metrics)
    if extra:
        raise SystemExit(
            f"measured but not declared in BENCHMARK.json: {sorted(extra)}")
    ops = result.operations()
    return json.dumps({"correct": result.correct,
                       "attempted": ops["attempted"],
                       "failed": ops["failed"], "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(wl.BY_NAME), metavar="NAME",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="perturbs the simulated path delay, so runs "
                             "with different seeds take different inputs "
                             "of the same size (default 2022)")
    parser.add_argument("--world", type=int, default=2022,
                        help="dataset seed: which synthetic web is crawled "
                             "(default 2022; 7 is the held-out world)")
    parser.add_argument("--reps", type=int, default=None,
                        help="timed repetitions per workload (default 5, "
                             "or as many as fit --seconds, at least "
                             f"{MIN_REPS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep starting repetitions until this much "
                             "time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 measures end to end, 1 makes "
                             "the traced run; prints the result line")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_work",
                        help="where run directories, traces and "
                             "results.json go (default .bench_work)")
    parser.add_argument("--smoke", action="store_true",
                        help="harness self-test size: 16 sites, 8 users, "
                             "one set-up run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = args.workload or [w.name for w in wl.WORKLOADS]
    driver = args.trace is not None
    if driver and len(names) != 1:
        parser.error("--trace takes exactly one --workload")
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = 5
    if reps is not None and reps < (1 if args.smoke else MIN_REPS):
        parser.error(f"--reps must be at least {MIN_REPS}")
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    context = run_context(args.seed, args.world)
    print(f"context: {json.dumps(context)}")
    if context["noisy"]:
        print("warning: load average above half the cores; this run is "
              "marked noisy", file=sys.stderr)

    results: Dict[str, WorkloadResult] = {}
    for name in names:
        results[name] = measure(
            wl.BY_NAME[name], args.world, args.seed,
            "smoke" if args.smoke else "full", out, reps, args.seconds,
            untraced=args.trace != 1, trace=args.trace != 0,
            setup_runs=1 if args.smoke else SETUP_RUNS)
        print_workload(results[name])

    problems = check_crawl_trio(results)
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, ratio in derived(results).items():
        print(f"{name:30s} {ratio['value']:14.4f} ratio, over {ratio['base']}")
    with open(out / "results.json", "w", encoding="utf-8") as handle:
        json.dump(results_document(context, results, problems), handle,
                  indent=1)
    if driver:
        print(contract_line(results[names[0]], trace=bool(args.trace)))
        return 0
    correct = not problems and all(r.correct for r in results.values())
    print(f"\n{'all checks passed' if correct else 'CHECKS FAILED'}; "
          f"results in {out / 'results.json'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
