"""The traced run: one `repro` command in this process, with span
recorders around a fixed table of public entry points and cProfile
around ``repro.cli.main``.

    python benchmarks/perf/traced.py OUT_PREFIX -- <repro argv>

writes ``OUT_PREFIX.jsonl`` (one span per line: id, name, start, end,
parent, pid) and ``OUT_PREFIX.json`` (stage self times, the cProfile
layer roll-up, and the files no layer rule matched).  The command's
own stdout is left alone so the caller can digest it.

Spans stay in memory until the run ends.  Pool workers are forked from
this process, inherit the recorders, and are killed without running
exit handlers, so a worker appends its spans to ``OUT_PREFIX.<pid>``
each time its outermost span closes; the parent merges those files.
cProfile observes the parent only.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (stage, module, attribute path).  A missing entry point raises.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("total", "repro.cli", "main"),
    ("plan", "repro.dataset.generator", "PageGenerator.generate_all"),
    ("world_build", "repro.dataset.world", "build_world"),
    ("simulate", "repro.netsim.events", "EventLoop.run_until_idle"),
    ("har_encode", "repro.web.har", "HarArchive.to_json"),
    ("har_decode", "repro.web.har", "HarArchive.from_json"),
    ("merge", "repro.telemetry", "CrawlTrace.extend"),
    ("merge", "repro.telemetry", "CrawlTrace.extend_audit"),
    ("merge", "repro.telemetry.metrics", "MetricsRegistry.absorb"),
    ("merge", "repro.traffic.aggregate", "TrafficAggregate.merge"),
    ("merge", "repro.chaos.report", "ChaosReport.absorb_tallies"),
    ("sink.cache", "repro.runtime.sinks", "CacheStoreSink.__call__"),
    ("sink.cache", "repro.runtime.sinks", "CacheStatusSink.__call__"),
    # The untraced crawl stores its archive inside crawl_cached, not in
    # a sink; without this the cache write would vanish into "other".
    ("sink.cache", "repro.dataset.cache", "CrawlCache.store"),
    ("sink.trace", "repro.runtime.sinks", "TraceSink.__call__"),
    ("sink.audit", "repro.runtime.sinks", "AuditSink.__call__"),
    ("sink.ledger", "repro.runtime.sinks", "LedgerSink.__call__"),
    ("sink.render", "repro.runtime.sinks", "RenderSink.__call__"),
    ("sink.aggregate", "repro.runtime.sinks", "AggregateSink.__call__"),
    ("sink.chaos_report", "repro.runtime.sinks", "ChaosReportSink.__call__"),
)

STAGES = tuple(dict.fromkeys(stage for stage, _, _ in ENTRY_POINTS
                             if stage != "total")) + ("other", "total")

#: Layer rules: path under ``src/repro`` (a file, or a directory ending
#: in ``/``) -> layer.  First match wins; files are listed before the
#: directories that would also match them.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("netsim/", "netsim"),
    ("h2/frames.py", "h2.frames"),
    ("h2/hpack.py", "h2.hpack"),
    ("h2/__init__.py", "h2.connection"),
    ("h2/connection.py", "h2.connection"),
    ("h2/stream.py", "h2.connection"),
    ("h2/settings.py", "h2.connection"),
    ("h2/events.py", "h2.connection"),
    ("h2/errors.py", "h2.connection"),
    ("h2/tls_channel.py", "h2.tls_channel"),
    ("h2/client.py", "h2.endpoint"),
    ("h2/server.py", "h2.endpoint"),
    ("h2/http1.py", "h2.endpoint"),
    ("transport/", "transport"),
    ("tlspki/", "tlspki"),
    ("dnssim/", "dnssim"),
    ("web/", "web"),
    ("browser/__init__.py", "browser.engine"),
    ("browser/engine.py", "browser.engine"),
    ("browser/cache.py", "browser.engine"),
    ("browser/pool.py", "browser.pool"),
    ("browser/policy.py", "browser.pool"),
    ("browser/retry.py", "browser.pool"),
    ("dataset/generator.py", "dataset.generate"),
    ("dataset/profiles.py", "dataset.generate"),
    ("dataset/tranco.py", "dataset.generate"),
    ("dataset/world.py", "dataset.world"),
    ("dataset/__init__.py", "dataset.run"),
    ("dataset/shard.py", "dataset.run"),
    ("dataset/crawler.py", "dataset.run"),
    ("dataset/cache.py", "dataset.run"),
    ("dataset/characterize.py", "dataset.analyze"),
    ("core/", "dataset.analyze"),
    ("analysis/", "dataset.analyze"),
    ("traffic/", "traffic"),
    ("chaos/", "chaos"),
    ("deployment/", "deployment"),
    ("telemetry/", "telemetry"),
    ("audit/", "telemetry"),
    ("obs/", "obs"),
    ("runtime/", "runtime"),
    ("cli/", "runtime"),
    ("__init__.py", "runtime"),
    ("__main__.py", "runtime"),
)

#: Where a file that matches no rule is charged, by top-level package,
#: so the layers still partition the run; it is also reported.
PACKAGE_FALLBACK = {"h2": "h2.connection", "browser": "browser.engine",
                    "dataset": "dataset.run"}

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES)) + (
    "stdlib.json", "stdlib.other")


# -- spans --------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans with a per-process open-span stack."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[dict] = []
        self.stack: List[str] = []
        self.count = 0
        #: The span open in the parent when this process was forked.
        self.fork_parent: Optional[str] = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.fork_parent = self.stack[-1] if self.stack else None
        self.pid = os.getpid()
        self.spans, self.stack, self.count = [], [], 0

    def wrap(self, stage: str, func):
        def recorded(*args, **kwargs):
            self.count += 1
            span_id = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else self.fork_parent
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append({
                    "id": span_id, "name": stage, "start": start,
                    "end": end, "parent": parent, "pid": self.pid,
                })
                if not self.stack and self.pid != self.main_pid:
                    self._flush_worker()
        recorded.__wrapped__ = func
        return recorded

    def _flush_worker(self) -> None:
        with open(f"{self.prefix}.{self.pid}", "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[dict]:
        """This process's spans plus every worker's; removes the
        worker files."""
        spans = list(self.spans)
        base = Path(self.prefix)
        for path in sorted(base.parent.glob(base.name + ".[0-9]*")):
            with open(path, "r", encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle)
            path.unlink()
        return spans


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point, wherever a repro module has bound it."""
    for stage, module_name, attr_path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module
        *parents, leaf = attr_path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        raw = owner.__dict__[leaf] if parents else getattr(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf,
                    classmethod(recorder.wrap(stage, raw.__func__)))
            continue
        wrapped = recorder.wrap(stage, raw)
        if parents:
            setattr(owner, leaf, wrapped)
            continue
        # A module-level function: other modules hold it by name
        # (``from x import f``), so rebind every alias.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    setattr(other, key, wrapped)


def stage_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per stage: a span's duration minus its children's.
    A worker's outermost spans run beside the parent, not inside it,
    so they are nobody's children."""
    child_time: Dict[str, float] = defaultdict(float)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            child_time[parent["id"]] += span["end"] - span["start"]
    out = dict.fromkeys(STAGES, 0.0)
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "total":
            out["total"] += duration
            out["other"] += duration - child_time[span["id"]]
        else:
            out[span["name"]] += duration - child_time[span["id"]]
    return out


# -- cProfile roll-up ---------------------------------------------------------

def _layer_of_file(filename: str, package_root: str,
                   unmatched: set) -> str:
    path = os.path.realpath(filename)
    if path.startswith(package_root + os.sep):
        relative = path[len(package_root) + 1:].replace(os.sep, "/")
        for rule, layer in LAYER_RULES:
            if relative == rule or (rule.endswith("/")
                                    and relative.startswith(rule)):
                return layer
        unmatched.add(relative)
        return PACKAGE_FALLBACK.get(relative.split("/")[0], "runtime")
    parts = path.replace(os.sep, "/").split("/")
    if "json" in parts[-2:-1]:
        return "stdlib.json"
    return "stdlib.other"


def layer_rollup(stats: pstats.Stats, package_root: str):
    """Self time and calls per layer.  A C built-in has no source file;
    its time is charged to the layers of its callers, in the shares
    cProfile's caller table records."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    unmatched: set = set()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    shares: Dict[tuple, Dict[str, float]] = {}

    def is_builtin(func) -> bool:
        return func[0] == "~"

    def share_of(func, seen=()) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s time, for built-ins."""
        if not is_builtin(func):
            return {_layer_of_file(func[0], package_root, unmatched): 1.0}
        if func in shares:
            return shares[func]
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        weights: Dict[str, float] = defaultdict(float)
        for caller, (nc, _, tt, _) in callers.items():
            if caller in seen:
                continue
            # Weigh by time; a built-in too quick to register any still
            # has calls to go by.
            weight = tt if tt > 0 else nc * 1e-9
            for layer, part in share_of(caller, seen + (func,)).items():
                weights[layer] += weight * part
        total = sum(weights.values())
        result = ({layer: w / total for layer, w in weights.items()}
                  if total > 0 else {"stdlib.other": 1.0})
        shares[func] = result
        return result

    for func, (_, nc, tt, _, callers) in table.items():
        if not is_builtin(func):
            layer = _layer_of_file(func[0], package_root, unmatched)
            self_s[layer] += tt
            calls[layer] += nc
            continue
        if not callers:
            self_s["stdlib.other"] += tt
            calls["stdlib.other"] += nc
            continue
        charged = 0.0
        for caller, (caller_nc, _, caller_tt, _) in callers.items():
            parts = share_of(caller, (func,))
            top = max(parts, key=parts.get)
            calls[top] += caller_nc
            for layer, part in parts.items():
                self_s[layer] += caller_tt * part
            charged += caller_tt
        # The caller table's times sum to the function's own, bar
        # rounding; keep the partition exact.
        self_s["stdlib.other"] += tt - charged
    return self_s, calls, sorted(unmatched)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, repro_argv = argv[0], argv[2:]
    import repro
    import repro.cli

    recorder = SpanRecorder(prefix)
    install(recorder)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = repro.cli.main(repro_argv)
    finally:
        profiler.disable()
    sys.stdout.flush()

    spans = recorder.collect()
    with open(prefix + ".jsonl", "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
    stats = pstats.Stats(profiler)
    package_root = os.path.realpath(os.path.dirname(repro.__file__))
    self_s, calls, unmatched = layer_rollup(stats, package_root)
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump({
            "stages": stage_times(spans),
            "layer_self_s": self_s,
            "layer_calls": calls,
            "profile_total_s": stats.total_tt,
            "unattributed_files": unmatched,
            "span_count": len(spans),
            "worker_pids": sorted({s["pid"] for s in spans}
                                  - {recorder.main_pid}),
        }, out, indent=1)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
