"""``repro explain`` / ``repro audit-diff`` -- reason-coded decision
analysis: annotated waterfalls, miss-reason breakdowns, and
decision-by-decision comparison of two audit exports."""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro.analysis import render_table
from repro.audit.reasons import ReasonCode
from repro.cli.args import (
    BREAKDOWN_METRICS,
    POLICIES,
    _nonnegative_int,
    _parse_breakdown,
    add_crawl_pipeline_options,
    add_dataset_options,
)
from repro.cli.invoke import crawl_pipeline
from repro.dataset.characterize import CrawlFold
from repro.runtime.console import diag as _diag


class ExplainFold(CrawlFold):
    """``explain``'s page sink: the crawl's fold, plus the report
    (:class:`~repro.audit.explain.Explanation`) and the protocol events'
    reason counts, fed each shard's pages and audit events as the
    shard merges."""

    #: Reason codes the protocol-event table counts beside every
    #: ``quic`` and ``h3`` event.
    PROTOCOL_CODES = frozenset({
        ReasonCode.ALT_SVC_UPGRADE, ReasonCode.HTTPS_RR_H3,
        ReasonCode.QUIC_HANDSHAKE_1RTT, ReasonCode.ZERO_RTT_RESUMED,
        ReasonCode.CROSS_HOST_TICKET, ReasonCode.TLS_ALPN_FALLBACK,
    })

    def __init__(self, pages=None) -> None:
        from repro.audit.explain import Explanation

        super().__init__()
        self.explanation = Explanation(pages)
        self.protocol_events: Counter = Counter()

    def on_shard(self, result) -> None:
        events = result.events
        self.explanation.add(result.payload.archives, events)
        self.protocol_events.update(
            event.code for event in events
            if event.kind in ("quic", "h3")
            or event.code in self.PROTOCOL_CODES)


def cmd_explain(args) -> int:
    from repro.audit.explain import render_taxonomy

    if args.taxonomy:
        print(render_taxonomy())
        return 0

    def render(outcome) -> None:
        fold = outcome.result
        _diag(f"explain: {outcome.trace.event_count} audit events over "
              f"{fold.attempted} pages")
        print(fold.explanation.render(metrics=args.breakdown))
        if fold.protocol_events:
            print()
            print(render_table(
                "Protocol events (h3 discovery and QUIC resumption)",
                ["Reason", "#Events"],
                [(code.value, count) for code, count in sorted(
                    fold.protocol_events.items(), key=lambda kv: -kv[1])],
            ))

    crawl_pipeline(args, args.policy, force_audit=True, render=render,
                   pages=partial(ExplainFold, args.pages)).run()
    return 0


def cmd_audit_diff(args) -> int:
    from repro.audit.diff import (
        diff_decisions,
        load_audit_jsonl,
        render_diff,
    )
    from repro.audit.reasons import UnknownReasonCode

    try:
        events_a = load_audit_jsonl(args.a)
        events_b = load_audit_jsonl(args.b)
    except (UnknownReasonCode, OSError, KeyError, TypeError,
            ValueError) as error:
        # Unreadable path, truncated/garbled JSONL, or an event doc
        # missing required fields: a clear diagnostic and exit 2, not
        # a traceback.
        _diag(f"audit-diff: {error!r}"
              if isinstance(error, (KeyError, TypeError))
              else f"audit-diff: {error}")
        return 2
    diff = diff_decisions(events_a, events_b)
    _diag(f"audit-diff: {len(events_a)} events in {args.a}, "
          f"{len(events_b)} in {args.b}")
    print(render_diff(diff, label_a=str(args.a), label_b=str(args.b)))
    return 0 if diff.clean else 1


def register(sub) -> None:
    explain = sub.add_parser(
        "explain",
        help="annotated waterfalls + miss-reason gap breakdown",
    )
    add_dataset_options(explain)
    add_crawl_pipeline_options(explain)
    explain.add_argument("--policy", choices=sorted(POLICIES),
                         default="chromium")
    explain.add_argument("--pages", type=_nonnegative_int, default=None,
                         help="render only the first N per-page "
                              "waterfalls (0 = breakdown tables only; "
                              "default: all pages)")
    explain.add_argument("--breakdown", type=_parse_breakdown,
                         default=list(BREAKDOWN_METRICS),
                         help="comma-separated breakdown metrics "
                              f"({','.join(BREAKDOWN_METRICS)} or "
                              "'all'; default all)")
    explain.add_argument("--taxonomy", action="store_true",
                         help="print the reason-code taxonomy table "
                              "and exit (no crawl)")
    explain.set_defaults(func=cmd_explain)

    audit_diff = sub.add_parser(
        "audit-diff",
        help="compare two audit JSONL exports decision-by-decision",
    )
    audit_diff.add_argument("a", help="baseline audit JSONL")
    audit_diff.add_argument("b", help="comparison audit JSONL")
    audit_diff.set_defaults(func=cmd_audit_diff)
