"""A content-addressed, reusable crawl cache.

Every crawl is a pure function of ``(DatasetConfig, policy name,
crawler params, shard layout)`` -- the simulation is deterministic --
so its merged HAR archives can be persisted once and reused by every
command that needs the same world.  The cache key is a SHA-256 digest
over the canonical JSON of those inputs; the payload is the JSONL
format :meth:`~repro.dataset.crawler.CrawlResult.load` reads, which is
exactly the paper pipeline's bucket of per-page HAR files (§3.1)
collapsed into one file per crawl.

An entry is written while its crawl runs: the crawl workload
(:class:`repro.runtime.workloads.CrawlWorkload`, the one caller of
:meth:`CrawlCache.writing`) opens ``crawl-<key>.tmp``, the shard merge
appends each absorbed shard's lines to it (a fan-out worker's lines
verbatim, so the parent never encodes an archive;
:func:`repro.dataset.shard.write_archive_lines`), and the run's cache
sink publishes it with :meth:`CrawlCache.store`, one atomic rename.

The cache directory defaults to ``$REPRO_CRAWL_CACHE`` when set, else
``~/.cache/repro/crawls`` (honouring ``$XDG_CACHE_HOME``).  Entries
are immutable: invalidation is deleting the file (or the directory),
or changing any keyed input, which addresses a different entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, TextIO

from repro.audit.record import canonical_json
from repro.dataset.crawler import CrawlParams, CrawlResult
from repro.dataset.generator import DatasetConfig

#: Bump when the archive format or crawl semantics change, so stale
#: entries from older code can never be mistaken for current ones.
#: 2: h2 receive windows and acks are the browsers' (DESIGN.md §7), which
#: moves every timing and, through timing, a few connection counts.
CACHE_FORMAT_VERSION = 2

#: Environment override for the cache root.
CACHE_ENV_VAR = "REPRO_CRAWL_CACHE"


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "crawls"


def cache_key(
    config: DatasetConfig,
    params: CrawlParams,
    shard_count: int,
) -> str:
    """Content address for one crawl definition."""
    document = {
        "version": CACHE_FORMAT_VERSION,
        "config": dataclasses.asdict(config),
        "params": dataclasses.asdict(params),
        "shard_count": int(shard_count),
    }
    canonical = canonical_json(document)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


@dataclass
class CacheEntryInfo:
    """One cache entry as seen on disk."""

    key: str
    path: Path
    size_bytes: int
    modified_at: float


@dataclass
class CacheStats:
    """Disk-level summary of a cache directory."""

    root: Path
    entries: List[CacheEntryInfo] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries)


class CrawlCache:
    """Filesystem store of crawl results, addressed by crawl inputs."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / f"crawl-{key}.jsonl"

    def load(self, key: str, pages=None):
        """The cached crawl for ``key``, its archives streamed one line
        at a time into the page sink ``pages`` (a new
        :class:`~repro.dataset.crawler.CrawlResult` by default), or
        ``None`` on a miss (or an unreadable/corrupt entry, which is
        dropped; ``pages`` then holds what was read before the fault
        and is not to be used)."""
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            return CrawlResult.load(path, pages)
        except (OSError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None

    @contextmanager
    def writing(self, key: str) -> Iterator[TextIO]:
        """Open ``key``'s entry for writing: yields the ``.tmp`` file
        a crawl appends its HAR JSON lines to.  Leaving the block
        closes the file, still invisible to readers (an older entry
        under ``key`` stays loadable) until :meth:`store` publishes
        it; a crawl that raises leaves no ``.tmp`` behind."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.path_for(key).with_suffix(".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                yield handle
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def store(self, key: str) -> Path:
        """Publish the entry written under :meth:`writing` atomically;
        returns the entry path."""
        path = self.path_for(key)
        os.replace(path.with_suffix(".tmp"), path)
        return path

    def entries(self) -> List[CacheEntryInfo]:
        """Every entry on disk, newest first (stable: ties break on
        key, so listings are deterministic)."""
        found: List[CacheEntryInfo] = []
        if self.root.is_dir():
            for path in self.root.glob("crawl-*.jsonl"):
                stat = path.stat()
                key = path.stem[len("crawl-"):]
                found.append(CacheEntryInfo(
                    key=key, path=path, size_bytes=stat.st_size,
                    modified_at=stat.st_mtime,
                ))
        found.sort(key=lambda e: (-e.modified_at, e.key))
        return found

    def stats(self) -> CacheStats:
        """Disk usage summary for the whole cache directory."""
        return CacheStats(root=self.root, entries=self.entries())

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age_days: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[CacheEntryInfo]:
        """Delete entries beyond a count budget and/or older than a
        cutoff; returns what was removed (oldest victims first).

        With neither bound given, nothing is removed (delete the
        directory to empty the cache wholesale).
        """
        entries = self.entries()
        victims: List[CacheEntryInfo] = []
        keep: List[CacheEntryInfo] = entries
        if max_age_days is not None:
            if max_age_days < 0:
                raise ValueError(f"bad max age {max_age_days}")
            cutoff = (now if now is not None else time.time()) \
                - max_age_days * 86_400.0
            keep = [e for e in keep if e.modified_at >= cutoff]
            victims.extend(e for e in entries if e.modified_at < cutoff)
        if max_entries is not None:
            if max_entries < 0:
                raise ValueError(f"bad entry budget {max_entries}")
            victims.extend(keep[max_entries:])
            keep = keep[:max_entries]
        for victim in sorted(victims, key=lambda e: e.modified_at):
            victim.path.unlink(missing_ok=True)
        return sorted(victims, key=lambda e: (e.modified_at, e.key))
