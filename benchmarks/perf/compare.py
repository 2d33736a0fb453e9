"""Compare two sets of benchmark runs: the parent commit (A) and a
change (B).

    python benchmarks/perf/compare.py A B

``A`` and ``B`` are each a ``results.json`` written by ``run.py``, or a
directory holding several (searched recursively).  Make the runs in
alternating pairs -- A B, B A, A B, ... with identical ``run.py``
arguments, at least ten pairs for a claimed gain -- so that drift of
the machine falls on both sides; every timed repetition of a side is
pooled into that side's median and quartiles.

Per workload and end-to-end metric the verdict is

* ``ok``         the change's median is not worse than the parent's by
                 more than the metric's bound (from BENCHMARK.json);
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the spread between runs (quartile distance over the
                 median, either side) is wider than the bound and the
                 two sides' repetitions interleave, so neither can be
                 said.

``failed_share`` is exact: any rise is ``regressed``.  Every ratio is
printed with its base.  Exits 1 if any row regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(path: Path) -> List[dict]:
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no results.json under {path}")
    docs = []
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def pooled(docs: List[dict], workload: str, metric: str) -> List[float]:
    samples: List[float] = []
    for doc in docs:
        entry = doc["workloads"].get(workload, {}).get("end_to_end", {})
        samples.extend(entry.get(metric, {}).get("samples", []))
    return samples


def failed_share(docs: List[dict], workload: str) -> Tuple[int, int]:
    failed = attempted = 0
    for doc in docs:
        ops = doc["workloads"].get(workload, {}).get("operations")
        if ops:
            failed += ops["failed"]
            attempted += ops["attempted"]
    return failed, attempted


def quartiles(values: List[float]) -> Tuple[float, ...]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)``: worsening is the share of A's median
    by which B's median is worse (negative when B is better)."""
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b2 - a2) / a2
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    if spread > bound:
        if better == "lower":
            all_better, all_worse = max(b) < min(a), min(b) > max(a)
        else:
            all_better, all_worse = min(b) > max(a), max(b) < min(a)
        if not (all_better or all_worse):
            return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = load_side(Path(argv[0])), load_side(Path(argv[1]))
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    regressed = 0
    print(f"A: {len(side_a)} run(s) from {argv[0]}    "
          f"B: {len(side_b)} run(s) from {argv[1]}")
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            a = pooled(side_a, workload, metric["name"])
            b = pooled(side_b, workload, metric["name"])
            if not a or not b:
                continue
            word, worse = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            print(
                f"{workload:15s} {metric['name']:16s} "
                f"A {a2:10.4f} [{a1:.4f} .. {a3:.4f}] n={len(a):<3d} "
                f"B {b2:10.4f} [{b1:.4f} .. {b3:.4f}] n={len(b):<3d} "
                f"{metric['unit']:8s} B/A {b2 / a2:.4f} of {a2:.4f}, "
                f"{'worse' if worse > 0 else 'better'} by "
                f"{abs(worse):.2%} (bound {metric['bound']:.0%}, "
                f"{metric['better']} is better): {word}")
        fa, na = failed_share(side_a, workload)
        fb, nb = failed_share(side_b, workload)
        if na and nb:
            word = "regressed" if fb * na > fa * nb else "ok"
            regressed += word == "regressed"
            print(f"{workload:15s} {'failed_share':16s} "
                  f"A {fa}/{na} = {fa / na:.6f}    B {fb}/{nb} = "
                  f"{fb / nb:.6f} (exact, lower is better): {word}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
