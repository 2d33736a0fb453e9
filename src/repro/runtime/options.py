"""Declarative instrumentation options.

One frozen record replaces the per-command if-ladders the CLI used to
carry: each command states *what* it wants recorded (trace artifact,
metrics summary, audit log, ledger record, SLO gates) and the
pipeline derives *how* to run from it -- most importantly whether the
crawl must run live (cache reads would skip the simulation and
produce no spans, audit events, or phase histograms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.console import diag


@dataclass(frozen=True)
class InstrumentationOptions:
    """What a run should record, independent of any workload."""

    #: Trace artifact path (Chrome trace_event JSON, or span JSONL
    #: when it ends in ``.jsonl``).  ``None`` = no trace artifact.
    trace_out: Optional[str] = None
    #: Print the unified metrics summary to stdout after the run.
    metrics: bool = False
    #: Audit-log artifact path (canonical JSONL).  ``None`` = none.
    audit_out: Optional[str] = None
    #: Collect audit events even without ``audit_out`` (commands like
    #: ``explain`` consume the events directly).
    force_audit: bool = False
    #: Ledger directory to append this run's record to.
    ledger_dir: Optional[str] = None
    #: SLO gate file evaluated into the run record.
    slo_path: Optional[str] = None

    @classmethod
    def from_args(cls, args, force_audit: bool = False
                  ) -> "InstrumentationOptions":
        """Lift the shared ``--trace/--metrics/--audit/--ledger/--slo``
        argparse options; absent attributes mean "not requested"."""
        return cls(
            trace_out=getattr(args, "trace", None),
            metrics=getattr(args, "metrics", False),
            audit_out=getattr(args, "audit", None),
            force_audit=force_audit,
            ledger_dir=getattr(args, "ledger", None),
            slo_path=getattr(args, "slo", None),
        )

    @property
    def want_trace(self) -> bool:
        """Spans must be collected (artifact or metrics summary)."""
        return bool(self.trace_out) or self.metrics

    @property
    def trace_jsonl(self) -> bool:
        """The trace artifact is span JSONL, which the shard merge
        streams; any other name gets the Chrome document."""
        return str(self.trace_out).endswith(".jsonl")

    @property
    def want_audit(self) -> bool:
        return bool(self.audit_out) or self.force_audit

    @property
    def live(self) -> bool:
        """Any instrumentation makes the run watched: it collects,
        and a crawl bypasses its cache, since a hit would skip the
        simulation entirely."""
        return bool(self.want_trace or self.want_audit
                    or self.ledger_dir)

    def load_rules(self) -> List[object]:
        """Load the SLO gates, if any.

        A malformed SLO file aborts *before* any crawling (exit 2): a
        gate file that cannot be parsed must never let a run pass
        silently.
        """
        if not self.slo_path:
            return []
        from repro.obs.slo import SloError, load_slo

        try:
            return load_slo(self.slo_path)
        except SloError as error:
            diag(f"slo: {error}")
            raise SystemExit(2)
