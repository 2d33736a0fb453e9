"""Certificate Transparency log (RFC 6962 Merkle tree).

An append-only Merkle tree over certificate fingerprints with inclusion
proofs.  Paper §6.4 argues that the bursty one-time
certificate re-issuance the coalescing plan requires would not stress
CT infrastructure; the benches use this module to quantify the load
(appends per hour vs the paper's 257,034 global hourly issuance rate).

Hashing follows RFC 6962 §2.1: leaf hash is ``SHA256(0x00 || entry)``,
interior node hash is ``SHA256(0x01 || left || right)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.tlspki.certificate import Certificate

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


def _leaf_hash(entry: bytes) -> bytes:
    return hashlib.sha256(LEAF_PREFIX + entry).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


def _merkle_root(hashes: List[bytes]) -> bytes:
    """Root of the (possibly unbalanced) RFC 6962 tree over leaf hashes."""
    if not hashes:
        return hashlib.sha256(b"").digest()
    if len(hashes) == 1:
        return hashes[0]
    split = _largest_power_of_two_below(len(hashes))
    return _node_hash(
        _merkle_root(hashes[:split]), _merkle_root(hashes[split:])
    )


def _largest_power_of_two_below(n: int) -> int:
    """The largest power of two strictly less than ``n`` (n >= 2)."""
    split = 1
    while split * 2 < n:
        split *= 2
    return split


@dataclass(frozen=True)
class InclusionProof:
    """Audit path proving a leaf is in a tree of a given size."""

    leaf_index: int
    tree_size: int
    path: Tuple[bytes, ...]


def _inclusion_path(hashes: List[bytes], index: int) -> List[bytes]:
    if len(hashes) == 1:
        return []
    split = _largest_power_of_two_below(len(hashes))
    if index < split:
        path = _inclusion_path(hashes[:split], index)
        path.append(_merkle_root(hashes[split:]))
    else:
        path = _inclusion_path(hashes[split:], index - split)
        path.append(_merkle_root(hashes[:split]))
    return path


def _replay_inclusion(entry: bytes, proof: InclusionProof) -> bytes:
    """Top-down recomputation mirroring :func:`_inclusion_path`."""

    def recompute(index: int, size: int, path: List[bytes]) -> bytes:
        if size == 1:
            if path:
                raise ValueError("path too long")
            return _leaf_hash(entry)
        split = _largest_power_of_two_below(size)
        sibling = path[-1]
        rest = path[:-1]
        if index < split:
            return _node_hash(recompute(index, split, rest), sibling)
        return _node_hash(sibling, recompute(index - split, size - split, rest))

    try:
        return recompute(proof.leaf_index, proof.tree_size, list(proof.path))
    except (ValueError, IndexError):
        return b""


class CtLog:
    """An append-only certificate transparency log."""

    def __init__(self) -> None:
        self._entries: List[bytes] = []
        self._leaf_hashes: List[bytes] = []
        self.append_times: List[float] = []

    def append(self, certificate: Certificate, now: float = 0.0) -> int:
        """Log a certificate; returns its leaf index (its SCT)."""
        entry = certificate.fingerprint().encode("ascii")
        self._entries.append(entry)
        self._leaf_hashes.append(_leaf_hash(entry))
        self.append_times.append(now)
        return len(self._entries) - 1

    def root_hash(self, tree_size: int = -1) -> bytes:
        """Root at a historical size (default: current)."""
        if tree_size < 0:
            tree_size = len(self._entries)
        if tree_size > len(self._entries):
            raise ValueError(
                f"tree has {len(self._entries)} entries, not {tree_size}"
            )
        return _merkle_root(self._leaf_hashes[:tree_size])

    def inclusion_proof(
        self, leaf_index: int, tree_size: int = -1
    ) -> InclusionProof:
        if tree_size < 0:
            tree_size = len(self._entries)
        if not 0 <= leaf_index < tree_size <= len(self._entries):
            raise ValueError(
                f"invalid proof request: leaf {leaf_index}, size {tree_size}"
            )
        path = _inclusion_path(self._leaf_hashes[:tree_size], leaf_index)
        return InclusionProof(
            leaf_index=leaf_index, tree_size=tree_size, path=tuple(path)
        )

    def verify_inclusion(
        self, certificate: Certificate, proof: InclusionProof
    ) -> bool:
        entry = certificate.fingerprint().encode("ascii")
        root = self.root_hash(proof.tree_size)
        return _replay_inclusion(entry, proof) == root

    def appends_in_window(self, start: float, end: float) -> int:
        """How many certificates were logged in [start, end) -- used by
        the §6.4 CT-load bench."""
        return sum(1 for t in self.append_times if start <= t < end)
