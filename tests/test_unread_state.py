"""No state that nothing reads.

A profiler sees which functions run, not which attributes are read, so
a counter bumped on every connection and never consulted looks live to
it.  This pass looks at the source instead: every attribute name
``src/repro`` stores (``x.a = ...``, ``x.a += ...``, an annotated class
field) must also be loaded somewhere in ``src/repro`` -- as an
attribute, or as a string constant (``getattr`` names, serialized
keys).  The names that are stored and never loaded must be exactly the
allowlist below, each with the reason it stays.

The pass matches names, not owners: a field whose name some other
object also reads passes unseen, and so does a ``__slots__`` entry
(its declaration is itself a string constant).
"""

import ast
import pathlib
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

SERIALIZED = "serialized: reaches an artifact without a load by name"
PAPER_SUITE = "read by the paper suite (benchmarks/) or a shipped example"
CALIBRATION = "calibration data: the paper's published value"
EVENT = ("h2 event field: what a received frame said, reported by "
         "H2Connection.receive_data; the endpoints act on the event's "
         "type, the h2 tests read the field")

#: Stored, never loaded by name in ``src/repro``, and kept.
ALLOWED: Dict[str, str] = {
    # HarEntry field; the HAR JSON writer emits it through the
    # dataclass field list (HarArchive.to_dict).
    "transfer_size": SERIALIZED,
    # CohortTally field; the aggregate doc walks dataclass fields.
    "inaccessible": SERIALIZED,
    # Figure1Data.as_counts: test_figure1 takes its median.
    "as_counts": PAPER_SUITE,
    # ReconstructionResult: test_figure2 asserts on both.
    "coalesced_urls": PAPER_SUITE,
    "time_saved_ms": PAPER_SUITE,
    # DeploymentExperiment.removed_subpage_only: printed by
    # examples/cdn_deployment.py.
    "removed_subpage_only": PAPER_SUITE,
    # HandshakeResult, kept whole: the TLS and certificate-size
    # ablations read the record; cpu_ms (the §4.2 verification cost)
    # and sni_plaintext (the ECH check) only tier-1 tests.
    "chain_bytes": PAPER_SUITE,
    "cpu_ms": PAPER_SUITE,
    "extra_flights": PAPER_SUITE,
    "records_needed": PAPER_SUITE,
    "rtts_used": PAPER_SUITE,
    "signature_checks": PAPER_SUITE,
    "sni_plaintext": PAPER_SUITE,
    # ProviderProfile.request_share: the Table 2 column.
    "request_share": CALIBRATION,
    # Fields of repro.h2.events records.
    "cert_id": EVENT,
    "debug_data": EVENT,
    "last_stream_id": EVENT,
    "opaque": EVENT,
    "raw_type": EVENT,
    "settings": EVENT,
}


def stored_never_loaded(package: pathlib.Path) -> Dict[str, List[str]]:
    """Attribute names stored under ``package`` and never loaded there,
    each with the ``file:line`` of every store."""
    stored: Dict[str, List[str]] = {}
    loaded = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, []).append(
                        f"{where}:{node.lineno}")
                else:
                    loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)):
                        stored.setdefault(statement.target.id, []).append(
                            f"{where}:{statement.lineno}")
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                loaded.add(node.value)
    return {name: stored[name] for name in sorted(set(stored) - loaded)}


def test_unread_state_is_exactly_the_allowlist():
    unread = stored_never_loaded(PACKAGE)
    new = {name: sites for name, sites in unread.items()
           if name not in ALLOWED}
    assert not new, (
        "stored and never read -- delete it, or allowlist it with a "
        f"reason: {new}"
    )
    stale = sorted(set(ALLOWED) - set(unread))
    assert not stale, f"allowlisted but now read (drop the entry): {stale}"


def test_the_pass_sees_each_kind_of_store(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    declared: int = 0\n"
        "    def f(self):\n"
        "        self.assigned = 1\n"
        "        self.bumped += 1\n"
        "        self.read = 2\n"
        "        self.named = 3\n"
        "        return self.read, getattr(self, 'named')\n"
    )
    assert list(stored_never_loaded(tmp_path)) == [
        "assigned", "bumped", "declared",
    ]
