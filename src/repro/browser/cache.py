"""Browser resource cache.

Active measurements in the paper intentionally cleared caches between
loads (§6.1); the cache exists so order-effects and warm-load
behaviour can be studied, and so "new session" semantics (flush
everything) are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CachedResource:
    url: str
    size_bytes: int
    stored_at: float
    max_age_ms: float

    def fresh_at(self, now: float) -> bool:
        return now <= self.stored_at + self.max_age_ms


class BrowserCache:
    """URL-keyed freshness cache."""

    #: Default freshness window: 1 hour in ms.
    DEFAULT_MAX_AGE_MS = 3600.0 * 1000

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: Dict[str, CachedResource] = {}

    def store(
        self,
        url: str,
        size_bytes: int,
        now: float,
        max_age_ms: Optional[float] = None,
    ) -> None:
        if not self.enabled:
            return
        self._entries[url] = CachedResource(
            url=url,
            size_bytes=size_bytes,
            stored_at=now,
            max_age_ms=(
                max_age_ms if max_age_ms is not None
                else self.DEFAULT_MAX_AGE_MS
            ),
        )

    def get(self, url: str, now: float) -> Optional[CachedResource]:
        if not self.enabled:
            return None
        entry = self._entries.get(url)
        if entry is None or not entry.fresh_at(now):
            if entry is not None:
                del self._entries[url]
            return None
        return entry

    def flush(self) -> None:
        """Clear everything -- the between-measurements reset of §6.1."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
