"""Slotted telemetry records and the canonical JSON they export as.

Every JSONL artifact (spans, audit events, ledger, aggregate, chaos
report) spells a line the same way -- sorted keys, compact separators,
ASCII -- so identical data is identical bytes.  :data:`canonical_json`
is that spelling for a whole document; a :class:`SlottedRecord`
subclass formats its own line field by field with :data:`json_str`,
because a traced crawl emits tens of thousands of records and a dict
plus an encoder per record was most of what watching cost.

A leaf module: it imports nothing from ``repro``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as json_str  # noqa: F401

#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` without
#: building a ``JSONEncoder`` per call.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


class SlottedRecord:
    """Dataclass-style ``==`` and ``repr`` over ``__slots__``, for
    records numerous enough that a ``__dict__`` each is measurable."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
