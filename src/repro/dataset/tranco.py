"""Tranco-style site ranking.

The paper draws its targets from the Tranco top-500K list (§3.1).  The
synthetic equivalent is a deterministic ranked list of site domains;
rank is 1-based and popularity-ordered, and the generator uses the rank
both for bucket statistics (Table 1) and for mild popularity trends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TrancoEntry:
    rank: int
    domain: str

    @property
    def www_hostname(self) -> str:
        return f"www.{self.domain}"


class TrancoList:
    """A ranked list of synthetic site domains."""

    def __init__(self, size: int, tld_cycle: tuple = (".com", ".net",
                                                      ".org", ".io")) -> None:
        if size <= 0:
            raise ValueError(f"list size must be positive, got {size}")
        self.size = size
        self._tlds = tld_cycle

    def entry(self, rank: int) -> TrancoEntry:
        if not 1 <= rank <= self.size:
            raise IndexError(
                f"rank {rank} outside [1, {self.size}]"
            )
        tld = self._tlds[(rank - 1) % len(self._tlds)]
        return TrancoEntry(rank=rank, domain=f"site{rank:06d}{tld}")

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[TrancoEntry]:
        for rank in range(1, self.size + 1):
            yield self.entry(rank)
