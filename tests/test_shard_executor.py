"""The one shard executor, its pickled hand-off and its shard-order
merge (``repro.dataset.shard``), tested in isolation with toy shard
functions and against one real shard of each workload.

That a whole run exports the same bytes at any ``--jobs`` is
tests/test_digests.py's, one row per workload.
"""

import multiprocessing
import os
import pickle
import threading
import time
from types import SimpleNamespace

import pytest

from repro.audit.log import events_to_jsonl
from repro.audit.record import canonical_json
from repro.chaos import (
    ChaosReport,
    DEFAULT_RETRY_POLICY,
    EMPTY_SCHEDULE,
    load_fault_schedule,
)
from repro.dataset.crawler import CrawlParams, CrawlResult
from repro.dataset import shard as shard_module
from repro.dataset.generator import DatasetConfig, PageGenerator
from repro.dataset.shard import (
    ShardResult,
    _shard_from_wire,
    _shard_to_wire,
    crawl_shard,
    crawl_shards,
    merge_shards,
    plan_shards,
    plan_slices,
    run_shards,
)
from repro.obs.ledger import phase_docs_from_registry
from repro.telemetry import CrawlTrace, MetricsRegistry
from repro.telemetry.exporters import spans_to_jsonl
from repro.traffic import (
    TrafficAggregate,
    plan_replica,
    plan_user_shards,
    simulate_shard,
)
from repro.traffic.scenario import ScenarioConfig


def merged_artifacts(result: ShardResult) -> dict:
    """Every output one shard result merges to, as a run exports it:
    the crawl's archives or the traffic aggregate, the chaos report,
    the spans and audit log, the ledger's phase docs and the
    ``--metrics`` summary."""
    trace = CrawlTrace()
    trace.adopt(result, shard=0)
    report = ChaosReport()
    report.absorb_tallies(result.faults)
    report.requests_retried += result.requests_retried
    report.requests_exhausted += result.requests_exhausted
    payload = result.payload
    if isinstance(payload, CrawlResult):
        for archive in payload.archives:
            report.add(archive)
        merged = "\n".join(a.to_json() for a in payload.archives)
    else:
        aggregate = TrafficAggregate(duration_ms=payload.duration_ms,
                                     bucket_ms=payload.bucket_ms,
                                     shard_count=payload.shard_count)
        aggregate.merge(payload)
        merged = aggregate.to_jsonl()
    return {
        "payload": merged,
        "report": report.to_jsonl(),
        "spans": spans_to_jsonl(trace.spans),
        "audit": events_to_jsonl(trace.audit),
        "phases": canonical_json(phase_docs_from_registry(trace.metrics)),
        "metrics": trace.metrics_summary(),
    }


# ---------------------------------------------------------------------------
# The executor, with toy shard functions
# ---------------------------------------------------------------------------


class _Spec:
    def __init__(self, index: int) -> None:
        self.index = index


def _toy_shard(spec: _Spec, delay_s: float = 0.0) -> ShardResult:
    """Sleeps, then reports who ran it as its one metric, the counter
    ``toy.pid{index=...}``."""
    time.sleep(delay_s)
    registry = MetricsRegistry()
    registry.counter("toy.pid", index=spec.index).inc(os.getpid())
    return ShardResult(payload=CrawlResult(), metrics=registry.metrics())


def _index(result: ShardResult) -> int:
    return int(dict(result.metrics[0].labels)["index"])


def _pid(result: ShardResult) -> int:
    return result.metrics[0].value


def _failing_shard(spec: _Spec) -> ShardResult:
    if spec.index == 1:
        raise RuntimeError(f"shard {spec.index} exploded")
    return _toy_shard(spec)


def _run(shard_fn, payloads, jobs):
    """``run_shards`` over payloads led by their specs."""
    return run_shards(shard_fn, [args[0] for args in payloads], payloads,
                      jobs)


class TestRunShards:
    def test_results_come_back_in_payload_order(self):
        """Shard 0 finishes long after shard 1; it is still yielded
        first."""
        payloads = [(_Spec(0), 0.4), (_Spec(1), 0.0), (_Spec(2), 0.0)]
        results = list(_run(_toy_shard, payloads, jobs=2))
        assert [_index(r) for r in results] == [0, 1, 2]
        assert all(_pid(r) != os.getpid() for r in results)

    def test_serial_path_runs_in_process_without_pickling(self):
        marker = object()
        results = list(_run(
            lambda spec: ShardResult(payload=marker), [(_Spec(0),)] * 2,
            jobs=1,
        ))
        assert [r.payload for r in results] == [marker, marker]

    def test_single_payload_stays_in_process_at_any_jobs(self):
        (result,) = _run(_toy_shard, [(_Spec(0),)], jobs=4)
        assert _pid(result) == os.getpid()

    def test_worker_exception_reraises_and_reaps_the_pool(self):
        payloads = [(_Spec(index),) for index in range(3)]
        with pytest.raises(RuntimeError, match="shard 1 exploded"):
            list(_run(_failing_shard, payloads, jobs=2))
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_shards(self):
        payloads = [(_Spec(index), 0.2) for index in range(2)]
        results = list(_run(_toy_shard, payloads, jobs=8))
        pids = {_pid(r) for r in results}
        assert len(pids) <= 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            _run(_toy_shard, [(_Spec(0),)], jobs=0)

    def test_pool_draws_lazy_payloads_in_the_calling_thread(self):
        """A lazy payload stream is drawn by the caller's thread, a
        bounded distance ahead of the results it has yielded."""
        specs = [_Spec(index) for index in range(5)]
        drawn = []

        def payloads():
            for spec in specs:
                drawn.append((spec.index, threading.get_ident()))
                yield (spec,)

        results = run_shards(_toy_shard, specs, payloads(), jobs=2)
        ahead = []
        for result in results:
            ahead.append(len(drawn) - _index(result))
        assert [index for index, _ in drawn] == list(range(5))
        assert {ident for _, ident in drawn} == {threading.get_ident()}
        # At most workers + 1 shards submitted and not yet yielded.
        assert max(ahead) == 3

    def test_merge_folds_in_shard_order_and_reports_progress(self):
        seen, absorbed, watched = [], [], []
        specs = [_Spec(0), _Spec(1)]

        def watch(done, total, so_far):
            seen.append((done, total))
            watched.append(len(so_far.metrics))

        trace = merge_shards(
            _toy_shard, specs, [(specs[0], 0.3), (specs[1], 0.0)], 2,
            lambda result: absorbed.append(_index(result)), watch=watch,
        )
        assert absorbed == [0, 1]
        assert seen == [(1, 2), (2, 2)]
        assert len(watched) == 2
        assert isinstance(trace, CrawlTrace)


def _slice_probe_shard(spec, records, *_args) -> ShardResult:
    """Stands in for ``crawl_shard``: its one (failed) archive names
    the shard, the sites it was handed with the pid that planned each,
    and who ran it.  The payload is not a ``CrawlResult``, so the
    stand-in archive is pickled as it is."""
    return ShardResult(payload=SimpleNamespace(archives=[SimpleNamespace(
        page=SimpleNamespace(success=False), index=spec.index,
        sites=[(r.entry.domain, r.planned_by) for r in records],
        pid=os.getpid(),
    )]))


class TestSlicesCrossTheFork:
    """Plain, observed and fault-injected crawls all plan in the
    parent and hand each pooled shard its own slice, because all three
    are one ``crawl_shards`` call."""

    CONFIG = DatasetConfig(site_count=8, seed=31)

    @pytest.fixture
    def planned(self, monkeypatch):
        """Every ``generate_all`` call in this process, its records
        stamped with the pid that planned them."""
        calls = []
        real = PageGenerator.generate_all

        def stamped(generator, entries=None):
            records = real(generator, entries)
            for record in records:
                record.planned_by = os.getpid()
            calls.append(len(records))
            return records

        monkeypatch.setattr(shard_module, "crawl_shard", _slice_probe_shard)
        monkeypatch.setattr(PageGenerator, "generate_all", stamped)
        return calls

    @pytest.mark.parametrize("collect,chaos", [
        (None, None),
        ((True, True), None),
        ((False, True), (EMPTY_SCHEDULE, DEFAULT_RETRY_POLICY)),
    ], ids=["plain", "observed", "chaos"])
    def test_each_worker_gets_its_own_slice_planned_once_in_the_parent(
        self, planned, collect, chaos
    ):
        shards = plan_shards(self.CONFIG, 4)
        seen = crawl_shards(shards, CrawlParams(), 2, collect=collect,
                            chaos=chaos)[0].archives
        domains = [entry.domain for entry in self.CONFIG.tranco()]
        assert [doc.index for doc in seen] == [0, 1, 2, 3]
        for doc, spec in zip(seen, shards):
            assert doc.sites == [(domain, os.getpid())
                                 for domain in domains[spec.lo:spec.hi]]
        # One generate_all per slice, every site planned once.
        assert planned == [2, 2, 2, 2]
        assert os.getpid() not in {doc.pid for doc in seen}


# ---------------------------------------------------------------------------
# The hand-off, with one real shard of each workload
# ---------------------------------------------------------------------------


def _crawl_result() -> ShardResult:
    spec = plan_shards(DatasetConfig(site_count=6, seed=2022), 2)[0]
    return crawl_shard(spec, next(plan_slices([spec])), CrawlParams(),
                       collect=(True, True))


def _chaos_result() -> ShardResult:
    schedule = load_fault_schedule("examples/faults_demo.toml")
    assert not schedule.empty
    spec = plan_shards(DatasetConfig(site_count=12, seed=2022), 2)[0]
    return crawl_shard(
        spec, next(plan_slices([spec])), CrawlParams(), collect=(True, True),
        chaos=(schedule, DEFAULT_RETRY_POLICY),
    )


def _traffic_result() -> ShardResult:
    scenario = ScenarioConfig(
        users=6, site_count=6, seed=2022, duration_ms=6_000.0,
        mean_visits_per_user=2.0, bucket_ms=2_000.0,
    )
    return simulate_shard(plan_user_shards(scenario, 2)[0],
                          plan_replica(scenario), (), collect=(True, True))


class TestPickledHandOff:
    @pytest.mark.parametrize(
        "make", [_crawl_result, _traffic_result, _chaos_result]
    )
    def test_round_trip_merges_to_identical_outputs(self, make):
        result = make()
        # Shipped exactly as the pool ships it: the worker entry
        # point's return value through pickle, re-inflated as the
        # parent does.  Everything but a crawl's archives goes as
        # itself.
        wire = _shard_to_wire((lambda: result, ()))
        shipped = _shard_from_wire(pickle.loads(pickle.dumps(wire)), {})
        assert (type(wire.payload) is list) == (make is not _traffic_result)
        assert type(shipped.payload) is type(result.payload)
        assert shipped.spans == result.spans
        assert shipped.events == result.events
        assert shipped.faults == result.faults
        assert bool(result.faults) == (make is _chaos_result)
        assert result.spans and result.events and result.metrics
        live = merged_artifacts(result)
        assert live["phases"] != "[]"
        assert merged_artifacts(shipped) == live

    def test_untraced_crawl_shard_carries_only_its_payload(self):
        spec = plan_shards(DatasetConfig(site_count=4, seed=2022), 1)[0]
        result = crawl_shard(spec, next(plan_slices([spec])), CrawlParams())
        assert result.payload.attempted == 4
        assert (result.spans, result.metrics, result.events,
                result.faults) == ((), (), (), ())
