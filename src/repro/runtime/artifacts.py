"""A run's artifact files, opened before its first shard.

Every file a pipeline run names -- ``--trace``, ``--audit``, ``traffic
--out``, ``chaos --out`` -- is opened as ``OUT.tmp`` before any
simulation, so a path that cannot be written exits 2 with one line
naming it instead of failing after the whole run.  The shard merge
streams span and audit JSONL into the open files as it absorbs each
shard (:class:`~repro.telemetry.CrawlTrace`), and the run's sinks
(:mod:`repro.runtime.sinks`) publish each file with one atomic rename
-- the ``writing``/``store`` pattern of
:class:`~repro.dataset.cache.CrawlCache`.  A run that raises leaves no
``.tmp`` behind.
"""

from __future__ import annotations

import errno
import os
from contextlib import suppress
from typing import Optional

from repro.runtime.console import diag
from repro.telemetry import CrawlTrace


class Artifact:
    """One output file, written as ``path + ".tmp"`` until
    :meth:`publish`."""

    def __init__(self, label: str, path: str) -> None:
        self.path = path
        self.tmp = f"{path}.tmp"
        try:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
            self.handle = open(self.tmp, "w", encoding="utf-8")
        except OSError as error:
            diag(f"{label}: cannot write {path}: "
                 f"{error.strerror or error}")
            raise SystemExit(2)

    def publish(self) -> None:
        self.handle.close()
        os.replace(self.tmp, self.path)

    def discard(self) -> None:
        self.handle.close()
        with suppress(FileNotFoundError):
            os.unlink(self.tmp)


def _open(label: Optional[str], path: Optional[str]) -> Optional[Artifact]:
    return Artifact(label, path) if path else None


class RunArtifacts:
    """Every artifact one run names, each opened as its ``.tmp``:
    ``trace`` and ``audit`` from the instrumentation options, ``out``
    the workload's own (the traffic aggregate, the chaos report)."""

    def __init__(self, options, out_label: Optional[str] = None,
                 out_path: Optional[str] = None) -> None:
        self.options = options
        self.trace = self.audit = self.out = None
        try:
            self.trace = _open("trace", options.trace_out)
            self.audit = _open("audit", options.audit_out)
            self.out = _open(out_label, out_path)
        except BaseException:
            self.discard()
            raise

    def crawl_trace(self) -> CrawlTrace:
        """The shard merge's accumulator: span JSONL and the audit log
        stream into their files as each shard is absorbed.  Records
        stay in memory only for a reader after the run, the Chrome
        trace export; audit events die with their shard (``explain``
        folds each shard's as it merges)."""
        streamed = self.trace is not None and self.options.trace_jsonl
        return CrawlTrace(
            span_out=self.trace.handle if streamed else None,
            audit_out=None if self.audit is None else self.audit.handle,
            keep_spans=self.trace is not None and not streamed,
            keep_audit=False,
        )

    def discard(self) -> None:
        """Remove every ``.tmp`` not yet published."""
        for artifact in (self.trace, self.audit, self.out):
            if artifact is not None:
                artifact.discard()
