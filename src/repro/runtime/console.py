"""The CLI's stdout/stderr contract.

Tables and summaries are the *output* of a run and go to stdout;
everything about the run itself -- cache status, shard progress,
trace/audit/ledger destinations, SLO verdicts -- is a diagnostic and
goes to stderr.  Every pipeline stage and sink funnels through
:func:`diag` so the contract cannot drift per command.
"""

from __future__ import annotations

import sys


def diag(message: str) -> None:
    """Diagnostics (cache status, shard progress, trace notes) go to
    stderr so stdout stays clean, parseable table output."""
    print(message, file=sys.stderr)


def shard_progress(done: int, total: int, _trace) -> None:
    """The ``shards: k/n`` line, a run's per-shard ``watch`` callback
    unless the live heartbeat draws instead."""
    diag(f"shards: {done}/{total}")
