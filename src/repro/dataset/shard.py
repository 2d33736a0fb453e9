"""Sharded, parallel crawling.

The paper fanned its crawl of 315,796 sites out over 100 WebPageTest
VMs (§3.1); this module is the synthetic equivalent.  A
:class:`~repro.dataset.generator.DatasetConfig` is deterministically
partitioned into contiguous rank shards (:func:`plan_shards`); each
shard materializes *only its slice* of the synthetic web into its own
:class:`~repro.dataset.world.SyntheticWorld`, seeded from a seed
derived from ``(config.seed, shard layout)``, and is crawled
independently.  Merging the per-shard results in shard order therefore
yields archives that do not depend on how many worker processes ran
the shards -- ``jobs=4`` is archive-for-archive identical to
``jobs=1`` -- while the shard *layout* (``shard_count``) is part of
the experiment definition, like the paper's VM fan-out.

Site *plans* (ranks, pages, certificate contents) come from one
:class:`~repro.dataset.generator.PageGenerator` pass over the ranked
list at the original seed, so a site's identity is unaffected by
sharding; only world-materialization randomness (provider IP picks,
server think times) and crawl randomness are drawn from the derived
per-shard streams.  The pass is a stream (:func:`plan_slices`): it
hands each shard its own slice, in shard order, just before that
shard runs, and keeps none of it.

This module is also the one home of *how a list of shard jobs is
laid out, seeded, executed, shipped across a process boundary and
merged in shard order* -- for the crawl, for :mod:`repro.chaos.run`
and for :mod:`repro.traffic.simulate`: :func:`partition` (the
layout), :data:`SEED_DOMAINS` (every per-shard random stream),
:func:`shard_telemetry` and :meth:`ShardResult.bundle` (a shard's
collectors and its result), :func:`run_shards` (the executor; a
:class:`ShardResult` crosses the process boundary pickled, its records,
metrics, fault tallies and traffic aggregate as themselves and a
crawl's archives as HAR JSON lines) and
:func:`merge_shards` (the shard-order fold, which calls a run's one
per-shard callback, ``watch``, after each shard).  :func:`crawl_shards` is
the one crawl driver over them, plain, observed or fault-injected: it
plans each shard's slice into that shard's payload as the executor
draws it, and is the only caller that hands :func:`crawl_shard` to
the merge.  A crawl that is being cached
appends each absorbed shard to the cache entry as it merges
(:func:`write_archive_lines`), reusing the lines a worker sent.

The fold's memory contract: one shard's world and telemetry are live
at a time, and only its slice of the site plan; within a shard only
its open connections; nothing a shard hands the fold, or is handed,
holds a world object (a deployment plan is names, resolved in each
shard's own world by
:func:`repro.deployment.experiment.deploy_origin`; the certificate
plan, :func:`repro.core.certplan.plan_certificates`, reads site
records and builds no world at all); and on a CLI run no archive
outlives its shard's merge unless the command draws it:
:func:`crawl_shards` hands each one to a page sink as the shard
merges, and every command's sink (a
:class:`~repro.dataset.characterize.CrawlFold` or a subclass, a
:class:`~repro.chaos.report.ChaosReport`) keeps none but the pages
``explain`` renders.  The fan-out
parent still decodes each line, in order to fold it.  A
connection frees by reference counting as it closes
(:meth:`~repro.netsim.transport.Transport.close` drops the callbacks
that tie its layers together).  A pipeline run's writers -- the cache
entry, span JSONL, the audit log -- are opened before the first shard
and published by the run's sinks; the merge streams each shard's
records into them as it absorbs the shard, then drops the result and
frees the shard's world (:func:`merge_shards`) before the next one is
built.  Archives a fan-out merge decodes hold each distinct name once,
like the live archives of a serial crawl: the merge's memo
(:meth:`~repro.web.har.HarArchive.from_json`) goes with the merge.
"""

from __future__ import annotations

import gc
import multiprocessing
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice, starmap
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

import numpy as np

from repro.audit.log import AuditEvent
from repro.dataset.crawler import Crawler, CrawlParams, CrawlResult
from repro.dataset.generator import DatasetConfig, PageGenerator, SiteRecord
from repro.dataset.world import SyntheticWorld, build_world
from repro.telemetry import NULL_TELEMETRY, CrawlTrace, Span, Telemetry
from repro.telemetry.metrics import Metric
from repro.web.har import HarArchive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.report import FaultTally

#: Sites per shard when the caller does not pick a layout.
DEFAULT_SHARD_SIZE = 100

#: Every :func:`derive_seed` domain, one per per-shard random stream,
#: so no two streams of the same shard collide: the crawl's world and
#: crawler, the traffic population (:mod:`repro.traffic.scenario`),
#: and a chaos run's fault injector and retry jitter
#: (:func:`crawl_shard`).  3 is unused.
SEED_DOMAINS = {
    "world": 0,
    "crawler": 1,
    "population": 2,
    "chaos": 4,
    "retry": 5,
}


def derive_seed(
    base_seed: int, domain: int, shard_index: int, shard_count: int
) -> int:
    """A stable per-shard seed from the base seed and shard layout.

    Uses :class:`numpy.random.SeedSequence` spawn keys, whose mixing is
    documented as reproducible across platforms and numpy versions.
    """
    sequence = np.random.SeedSequence(
        entropy=int(base_seed),
        spawn_key=(int(domain), int(shard_count), int(shard_index)),
    )
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a dataset configuration."""

    config: DatasetConfig
    index: int
    shard_count: int
    #: 0-based half-open site slice [lo, hi) into the ranked site list.
    lo: int
    hi: int

    @property
    def site_count(self) -> int:
        return self.hi - self.lo

    @property
    def world_seed(self) -> int:
        return derive_seed(self.config.seed, SEED_DOMAINS["world"],
                           self.index, self.shard_count)

    def crawler_seed(self, base_seed: int) -> int:
        return derive_seed(base_seed, SEED_DOMAINS["crawler"],
                           self.index, self.shard_count)

    def build_world(self, records: Sequence[SiteRecord]) -> SyntheticWorld:
        """Materialize this shard's slice of the site plan (what
        :func:`plan_slices` hands it) on the derived seed."""
        world_config = replace(self.config, seed=self.world_seed)
        return build_world(world_config, records=records)


def default_shard_count(total: int, size: int = DEFAULT_SHARD_SIZE) -> int:
    """Shard layout when the caller does not pick one: ``size``-item
    shards (~100 sites by default), at least one."""
    return max(1, -(-total // size))


def partition(total: int, count: Optional[int] = None,
              size: int = DEFAULT_SHARD_SIZE) -> List[Tuple[int, int]]:
    """The one shard layout: ``range(total)`` as ``count`` contiguous,
    near-equal ``[lo, hi)`` slices, the first ``total % count`` one
    item longer -- a crawl's sites (:func:`plan_shards`) and a traffic
    population's users
    (:func:`~repro.traffic.scenario.plan_user_shards`) alike.

    ``count`` of ``None`` or 0 picks :func:`default_shard_count`;
    below 1 it is a :class:`ValueError`; above ``total`` it is
    ``total``.  Deterministic: slice ``i`` of ``n`` always covers the
    same items, whatever the worker count or scheduling.
    """
    count = count if count else default_shard_count(total, size)
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    count = max(1, min(count, total))
    base, extra = divmod(total, count)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def plan_shards(
    config: DatasetConfig, shard_count: Optional[int] = None
) -> List[ShardSpec]:
    """Partition ``config``'s ranked sites into contiguous, near-equal
    rank shards (:func:`partition`)."""
    bounds = partition(config.site_count, shard_count)
    return [ShardSpec(config=config, index=index, shard_count=len(bounds),
                      lo=lo, hi=hi)
            for index, (lo, hi) in enumerate(bounds)]


def plan_slices(specs: Sequence[ShardSpec]) -> Iterator[List[SiteRecord]]:
    """Each spec's site plans, in spec order, from one generation pass.

    One :class:`~repro.dataset.generator.PageGenerator` plans the
    config's ranked list in rank order and yields each spec's
    ``[lo, hi)`` slice as the pass reaches it (one
    :meth:`~repro.dataset.generator.PageGenerator.generate_all` call per
    slice), so every site gets the draws of the full pass whatever the
    layout.  No slice is referenced here once it is yielded: a caller
    that runs each shard before asking for the next holds one slice
    at a time.  ``specs`` share the first one's config and come in
    rank order; they may skip sites, which are planned and dropped.
    """
    config = specs[0].config
    generator = PageGenerator(config)
    entries = iter(config.tranco())
    planned = 0
    for spec in specs:
        if spec.lo < planned:
            raise ValueError(
                f"shard specs must come in rank order: shard {spec.index} "
                f"starts at site {spec.lo}, the stream is at {planned}"
            )
        if spec.lo > planned:
            generator.generate_all(islice(entries, spec.lo - planned))
        yield generator.generate_all(islice(entries, spec.site_count))
        planned = spec.hi


@dataclass(frozen=True)
class ShardResult:
    """One shard's bundled output -- crawl, chaos and traffic alike.

    ``payload`` is the workload's own merge unit (a
    :class:`~repro.dataset.crawler.CrawlResult` for crawl and chaos
    shards, a :class:`~repro.traffic.aggregate.TrafficAggregate` for
    traffic shards); ``spans``/``metrics``/``events`` are the telemetry
    bundle that :meth:`~repro.telemetry.CrawlTrace.adopt` merges in
    shard order (the shard registry's
    :class:`~repro.telemetry.metrics.Counter` and
    :class:`~repro.telemetry.metrics.Histogram` objects, not copies);
    ``faults`` are a chaos shard's
    :class:`~repro.chaos.report.FaultTally` objects (in schedule
    order) and ``requests_retried`` / ``requests_exhausted`` its
    engine's per-request retry counts.  Every field crosses the
    process boundary as itself, so a shard is the same object at any
    ``--jobs``; the merges copy what they read and keep none of it.
    ``har_lines`` is a crawl payload as its worker encoded it, one HAR
    JSON line per archive, kept by the parent beside the decoded
    payload; ``None`` on a shard that ran in this process.
    """

    payload: object
    spans: Sequence[Span] = ()
    metrics: Sequence[Metric] = ()
    events: Sequence[AuditEvent] = ()
    faults: Sequence["FaultTally"] = ()
    requests_retried: int = 0
    requests_exhausted: int = 0
    har_lines: Optional[Sequence[str]] = None

    @classmethod
    def bundle(cls, payload, telemetry: Telemetry,
               **fields) -> "ShardResult":
        """A shard's ``payload`` and ``fields`` bundled with what its
        ``telemetry`` collected (:func:`shard_telemetry`): the spans,
        the metrics and the audit events -- none from
        :data:`~repro.telemetry.NULL_TELEMETRY`."""
        if not telemetry.enabled:
            return cls(payload=payload, **fields)
        return cls(payload=payload, spans=telemetry.tracer.spans,
                   metrics=telemetry.metrics.metrics(),
                   events=telemetry.audit.events, **fields)


def shard_telemetry(clock: Callable[[], float],
                    collect: Optional[Tuple[bool, bool]]) -> Telemetry:
    """One shard's watch handle on its world's ``clock``.  ``collect``
    is a watched run's ``(trace, audit)`` collector switches --
    ``(False, False)`` collects metrics and phases only, for the run
    ledger -- and ``None`` is
    :data:`~repro.telemetry.NULL_TELEMETRY`, so the shard pays for no
    metrics registry or phase recorder."""
    if collect is None:
        return NULL_TELEMETRY
    trace, audit = collect
    return Telemetry(clock=clock, trace=trace, audit=audit)


def crawl_shard(
    spec: ShardSpec,
    records: Sequence[SiteRecord],
    params: CrawlParams,
    collect: Optional[Tuple[bool, bool]] = None,
    chaos: Optional[tuple] = None,
) -> ShardResult:
    """Build one shard's world from its slice of the site plan,
    ``records``, and crawl it (runs inside workers).

    ``collect`` is :func:`shard_telemetry`'s.  Collectors neither draw
    randomness nor schedule events, so the archives are identical
    either way.  Spans carry the shard's local ids and timestamps (its
    simulated clock starts at zero) and are renumbered by
    :meth:`~repro.telemetry.CrawlTrace.adopt`, as are audit events.

    ``chaos`` is a ``(schedule, retry_policy)`` pair: the crawl runs
    with a :class:`~repro.chaos.inject.FaultInjector` armed and the
    explicit retry policy on the browser context, and the result
    carries the shard's fault tallies and retry counts.
    """
    world = spec.build_world(records)
    telemetry = shard_telemetry(world.network.loop.now, collect)
    retry_policy = retry_seed = None
    if chaos is not None:
        from repro.chaos.inject import FaultInjector

        schedule, retry_policy = chaos
        retry_seed = derive_seed(params.seed, SEED_DOMAINS["retry"],
                                 spec.index, spec.shard_count)
    crawler = Crawler(
        world, replace(params, seed=spec.crawler_seed(params.seed)),
        telemetry=telemetry, retry_policy=retry_policy,
        retry_seed=retry_seed,
    )
    if chaos is not None:
        injector = FaultInjector(
            world,
            schedule,
            seed=derive_seed(params.seed, SEED_DOMAINS["chaos"],
                             spec.index, spec.shard_count),
            resolver=crawler.resolver,
            telemetry=telemetry,
        )
        injector.arm()
    tracer = telemetry.tracer
    shard_span = None
    if tracer.enabled:
        shard_span = tracer.begin(
            "shard", category="crawler", index=spec.index,
            sites=spec.site_count,
        )
    result = crawler.crawl()
    if shard_span is not None:
        tracer.end(
            shard_span, attempted=result.attempted,
            succeeded=result.success_count,
        )
    return ShardResult.bundle(
        result, telemetry,
        faults=() if chaos is None else injector.tallies,
        requests_retried=crawler.engine.requests_retried,
        requests_exhausted=crawler.engine.requests_exhausted,
    )


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _shard_to_wire(
    job: Tuple[Callable[..., ShardResult], tuple]
) -> ShardResult:
    """Picklable pool entry point: run one shard and hand the pool the
    result to pickle.  Spans, metrics, audit events, fault tallies and
    a traffic aggregate go as themselves; a crawl's archives go as HAR
    JSON lines (the hop the benchmark's ``har_encode`` / ``har_decode``
    stages time on the fan-out run, and the only codec on the wire)."""
    shard_fn, args = job
    result = shard_fn(*args)
    payload = result.payload
    if isinstance(payload, CrawlResult):
        payload = [archive.to_json() for archive in payload.archives]
    return replace(result, payload=payload)


def _shard_from_wire(result: ShardResult, memo: dict) -> ShardResult:
    """Undo :func:`_shard_to_wire` in the parent process, decoding
    every line through the merge's one ``memo`` so all shards' archives
    share their strings (:meth:`HarArchive.from_json`).  The lines
    ride along as ``har_lines`` so a cache entry can reuse them
    verbatim; they go when the merge drops the result."""
    if isinstance(result.payload, list):
        return replace(
            result,
            payload=CrawlResult(archives=[
                HarArchive.from_json(line, memo) for line in result.payload
            ]),
            har_lines=result.payload,
        )
    return result


def write_archive_lines(out: TextIO, result: ShardResult) -> None:
    """Append one crawl shard's archives to ``out`` as HAR JSON lines
    (the format :meth:`CrawlResult.load` reads): the worker's own lines when
    the shard crossed a process boundary, else encoded here."""
    lines = result.har_lines
    if lines is None:
        lines = map(HarArchive.to_json, result.payload.archives)
    for line in lines:
        out.write(line)
        out.write("\n")


def _run_pooled(shard_fn, payloads, workers) -> Iterator[ShardResult]:
    """Submit each payload as this thread draws it, and yield results
    in payload order while shards finish out of order in the workers.

    Payloads are drawn here, not by the pool's task-handler thread (as
    ``Pool.imap`` would), so a lazy payload -- a crawl's plan slice --
    is planned in the caller's thread.  At most ``workers + 1`` shards
    are submitted and not yet yielded: every worker has a shard queued
    behind the one it runs, and the parent never holds more slices.
    """
    memo: dict = {}  # the merge's string memo, dropped with it
    with _mp_context().Pool(processes=workers) as pool:
        pending = deque()
        for args in payloads:
            pending.append(
                pool.apply_async(_shard_to_wire, ((shard_fn, args),))
            )
            if len(pending) > workers:
                yield _shard_from_wire(pending.popleft().get(), memo)
        while pending:
            yield _shard_from_wire(pending.popleft().get(), memo)


def run_shards(
    shard_fn: Callable[..., ShardResult],
    specs: Sequence,
    payloads: Iterable[tuple],
    jobs: int,
) -> Iterator[ShardResult]:
    """The one shard executor: ``shard_fn(*payload)`` for every
    payload, results in payload order.  ``payloads`` is one tuple per
    spec of ``specs``, led by it, and may be a lazy iterator: it is
    drawn one payload at a time, a shard's just before it runs.

    With one worker (``jobs == 1`` or a single spec) shards run
    in-process and hand over live objects: the serial path never
    serialises.  Otherwise they fan out over a forked
    :mod:`multiprocessing` pool of ``min(jobs, len(specs))``
    workers; payloads go pickled and each :class:`ShardResult` comes
    back pickled (:func:`_shard_to_wire`).
    ``shard_fn`` must be a module-level function (it is pickled by
    import path).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(specs))
    if workers <= 1:
        return starmap(shard_fn, payloads)
    return _run_pooled(shard_fn, payloads, workers)


def merge_shards(
    shard_fn: Callable[..., ShardResult],
    specs: Sequence,
    payloads: Iterable[tuple],
    jobs: int,
    absorb: Callable[[ShardResult], None],
    watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
    crawl_trace: Optional[CrawlTrace] = None,
) -> CrawlTrace:
    """Execute ``payloads`` (:func:`run_shards`') and fold the results
    in the order of ``specs``, so the outcome is byte-identical
    whatever ``jobs`` ran it.

    ``absorb`` merges one result's payload into the caller's
    accumulator; its telemetry bundle is adopted into ``crawl_trace``
    (a fresh :class:`~repro.telemetry.CrawlTrace` that keeps every
    record when ``None``; pass one with writers attached to stream
    them), which is returned.  After each shard the run's one
    per-shard callback, ``watch``, gets ``(done_shards, total,
    merged_trace_so_far)``: the ``shards: k/n`` line, or the live
    heartbeat, which reads the merged counters there
    (:mod:`repro.runtime.workloads`).

    The fold holds one shard at a time (the module's memory
    contract): once a result is absorbed it is dropped, and a
    collection scoped to what the shard allocated -- everything older
    is frozen (:func:`gc.freeze`) -- frees its world, whose hosts,
    servers and listeners are reference cycles (its connections are
    not: each was freed as it closed), before the next shard is
    built.  Nothing in ``src/repro`` has a finalizer or a weak
    reference, so when a collection runs cannot change a byte.
    """
    total = len(specs)
    if crawl_trace is None:
        crawl_trace = CrawlTrace()
    results = run_shards(shard_fn, specs, payloads, jobs)
    gc.freeze()
    try:
        for done, spec in enumerate(specs, 1):
            result = next(results)
            absorb(result)
            crawl_trace.adopt(result, shard=spec.index)
            del result
            gc.collect()
            gc.freeze()
            if watch is not None:
                watch(done, total, crawl_trace)
    finally:
        gc.unfreeze()
    return crawl_trace


def crawl_shards(
    shards: Sequence[ShardSpec],
    params: CrawlParams,
    jobs: int,
    collect: Optional[Tuple[bool, bool]] = None,
    chaos: Optional[tuple] = None,
    archive_out: Optional[TextIO] = None,
    watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
    crawl_trace: Optional[CrawlTrace] = None,
    on_shard: Optional[Callable[[ShardResult], None]] = None,
    pages=None,
) -> Tuple[object, CrawlTrace]:
    """The one sharded crawl: every shard of one plan through
    :func:`crawl_shard`, merged in shard order, so the output is
    identical at any ``jobs``.

    ``pages`` is the page sink: anything with an ``add(archive)``,
    handed every archive in crawl order as its shard merges.  A
    :class:`~repro.dataset.crawler.CrawlResult` (the default) keeps
    them; a :class:`~repro.dataset.characterize.CrawlFold` or a
    :class:`~repro.chaos.report.ChaosReport` keeps none, so no archive
    outlives its shard's merge.
    ``collect`` and ``chaos`` are :func:`crawl_shard`'s.
    ``archive_out`` is an open text file (what
    :meth:`repro.dataset.cache.CrawlCache.writing` yields) that
    receives every archive as a HAR JSON line, shard by shard as the
    merge absorbs them.  ``watch``/``crawl_trace`` are
    :func:`merge_shards`'.  ``on_shard`` sees each result, in shard
    order, as the merge absorbs it (a chaos run folds its fault
    tallies there).  Returns the page sink and the merged trace
    (empty when ``collect`` is ``None``).
    """
    if pages is None:
        pages = CrawlResult()
    add = pages.add

    def absorb(result: ShardResult) -> None:
        for archive in result.payload.archives:
            add(archive)
        if archive_out is not None:
            write_archive_lines(archive_out, result)
        if on_shard is not None:
            on_shard(result)

    # A generator, so each slice is planned only when the executor
    # draws its shard's payload, and is referenced by that payload only.
    slices = plan_slices(shards)
    crawl_trace = merge_shards(
        crawl_shard, shards,
        ((spec, next(slices), params, collect, chaos) for spec in shards),
        jobs, absorb, watch, crawl_trace,
    )
    return pages, crawl_trace
