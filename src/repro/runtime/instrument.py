"""Instrumentation glue shared by every pipeline run.

The heartbeat watcher and ledger finalization used to be private
helpers of the CLI monolith; they are workload-independent (both the
crawl and the traffic simulation feed them) and live here so
pipelines and sinks can share one copy.
"""

from __future__ import annotations

from repro.runtime.console import diag


def counter_total(registry, name: str):
    """Sum of one counter series across all label sets."""
    return sum(
        metric.value for metric in registry.metrics()
        if metric.kind == "counter" and metric.name == name
    )


def ledger_watch(hb, rules, unit: str = "pages"):
    """Build the heartbeat callback for a shard driver's ``watch``
    (``crawl_shards``, ``run_scenario``, ``run_chaos``): after every
    shard merge it reads the merged-so-far metrics and redraws the
    status line (work done, rate, open connection count, SLO burn)."""
    from repro.obs.ledger import phase_docs_from_registry
    from repro.obs.slo import slo_burn

    def watch(done: int, total: int, crawl_trace) -> None:
        docs = phase_docs_from_registry(crawl_trace.metrics)
        pages = sum(doc["count"] for doc in docs
                    if doc["name"] == "phase.page")
        conns = counter_total(crawl_trace.metrics,
                              "pool.connections_opened")
        elapsed = hb.elapsed()
        fields = {
            "shards": f"{done}/{total}",
            unit: pages,
            f"{unit}/s": f"{pages / elapsed:.1f}" if elapsed > 0
            else "0.0",
            "conns": conns,
        }
        if rules:
            failing, evaluated = slo_burn(rules, docs)
            fields["slo"] = f"{evaluated - failing}/{evaluated} ok"
        hb.tick(fields, force=done == total)

    return watch


def finish_ledger(ledger_dir, record) -> None:
    """Write the record and print its ledger/SLO diagnostics."""
    from repro.obs.ledger import write_record

    path = write_record(ledger_dir, record)
    diag(f"ledger: run {record.run_id} -> {path}")
    failing = [
        doc["name"] for doc in record.slo
        if doc.get("measured") is not None and not doc.get("ok")
    ]
    if failing:
        diag(f"slo: FAIL {', '.join(failing)}")
    elif record.slo:
        diag(f"slo: {len(record.slo)} gate(s) pass")
