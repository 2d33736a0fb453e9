"""Webpage structure: root document plus a subresource dependency graph.

A :class:`WebPage` is what the dataset generator emits and the browser
engine loads.  Each :class:`Subresource` names its parent (the resource
whose parsing discovers it), a discovery delay (CPU/parse time after
the parent's body arrives), a content type, a size, and a *fetch mode*
-- the paper found that requests made with ``crossorigin=anonymous``
or via ``fetch()``/``XMLHttpRequest`` were not coalesced by Firefox
(§5.3), so the mode is a first-class attribute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnssim.records import normalize_name
from repro.web.content import ContentType


class FetchMode(enum.Enum):
    """How the browser fetches a subresource."""

    #: Normal element fetch (``<img>``, ``<script>``, ``<link>``).
    NORMAL = "normal"
    #: ``crossorigin="anonymous"`` element fetch (CORS, no credentials).
    CORS_ANONYMOUS = "cors-anonymous"
    #: Programmatic ``fetch()`` / ``XMLHttpRequest``.
    SCRIPT_FETCH = "script-fetch"


@dataclass
class Subresource:
    """One object a page needs beyond the root document."""

    hostname: str
    path: str
    content_type: ContentType
    size_bytes: int
    parent: Optional[str] = None  # parent path; None = root document
    discovery_delay_ms: float = 5.0
    fetch_mode: FetchMode = FetchMode.NORMAL
    #: False for legacy cleartext http:// subresources (Table 3 found
    #: 1.47% of requests still insecure).
    secure: bool = True

    def __post_init__(self) -> None:
        self.hostname = normalize_name(self.hostname)
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/': {self.path!r}")
        if self.size_bytes < 0:
            raise ValueError(f"negative size: {self.size_bytes}")
        if self.discovery_delay_ms < 0:
            raise ValueError(
                f"negative discovery delay: {self.discovery_delay_ms}"
            )

    @property
    def scheme(self) -> str:
        return "https" if self.secure else "http"

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.hostname}{self.path}"


@dataclass
class WebPage:
    """A root document and its subresource graph.

    ``resources`` is not mutated after construction: the graph is
    validated, and its parent -> children index built, once.
    """

    hostname: str
    root_path: str = "/"
    root_size_bytes: int = 27_000
    resources: List[Subresource] = field(default_factory=list)
    rank: int = 0  # Tranco-style popularity rank, 1 = most popular

    def __post_init__(self) -> None:
        self.hostname = normalize_name(self.hostname)
        self._validate_graph()

    @property
    def url(self) -> str:
        return f"https://{self.hostname}{self.root_path}"

    def _validate_graph(self) -> None:
        known_paths = {resource.path for resource in self.resources}
        known_paths.add(self.root_path)
        #: Normalized parent path -> its children, in ``resources`` order.
        self._children: Dict[Optional[str], List[Subresource]] = {}
        for resource in self.resources:
            parent = resource.parent
            if parent is not None and parent not in known_paths:
                raise ValueError(
                    f"{resource.url} names unknown parent {parent!r}"
                )
            self._children.setdefault(
                self._normalized_parent(parent), []
            ).append(resource)
        self._assert_acyclic()

    def _normalized_parent(self, parent: Optional[str]) -> Optional[str]:
        """The root path and ``None`` both mean "discovered by the root"."""
        return None if parent in (None, self.root_path) else parent

    def _assert_acyclic(self) -> None:
        seen = set()
        stack: List[Optional[str]] = [None]  # None = root document
        while stack:
            node = stack.pop()
            for child in self._children.get(node, ()):
                if child.path in seen:
                    raise ValueError(
                        f"dependency cycle or duplicate path at "
                        f"{child.path!r}"
                    )
                seen.add(child.path)
                stack.append(child.path)
        missing = {r.path for r in self.resources} - seen
        if missing:
            raise ValueError(
                f"resources unreachable from the root: {sorted(missing)}"
            )

    def children_of(self, parent_path: Optional[str]) -> List[Subresource]:
        """Resources discovered by parsing ``parent_path`` (``None`` or
        the root path for root-document children), in ``resources``
        order."""
        return list(
            self._children.get(self._normalized_parent(parent_path), ())
        )

    def hostnames(self) -> List[str]:
        """All distinct hostnames the page touches, root first."""
        seen = [self.hostname]
        for resource in self.resources:
            if resource.hostname not in seen:
                seen.append(resource.hostname)
        return seen
