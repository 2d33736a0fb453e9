"""The one determinism harness: every artifact of a fixed list of small
commands, pinned by SHA-256.

``tests/data/digests.json`` is the table.  Each row holds a CLI
command -- a template in which ``{out}`` is a fresh output directory,
``{jobs}`` the worker count and ``{scenario}`` the row's scenario file
with ``{out}`` filled in -- and the digest of every artifact it
writes: ``stdout`` and each file under ``{out}``, by relative path.
Ledger records (files under ``ledger/``) are digested without the
``git`` field of their meta line, which names the checkout, not the
run.

``scripts/gen_digests.py`` writes the digests at ``--jobs 1``, each row
in a fresh interpreter; the test here runs each row once, in process,
at ``--jobs 2``.  A match holds two contracts at once: ``--jobs`` never
changes a byte, and the output equals that of the commit that last
regenerated the table.  A change that keeps output leaves the table
alone; one that moves output regenerates it, and the diff names every
artifact that moved.

A row's ``same_as`` names another row and the artifacts the two must
share byte for byte: a chaos run with an empty schedule decides
exactly as the plain crawl does, say.  The generator refuses to write
a table in which such a pair differs, so checking the stored digests
is enough.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.cli import main
from repro.runtime.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "digests.json"
REGENERATE = "PYTHONPATH=src python scripts/gen_digests.py"


def command_for(row: dict, workdir: pathlib.Path,
                jobs: int) -> Tuple[List[str], pathlib.Path]:
    """The row's argv with its placeholders filled in, and the empty
    output directory (inside ``workdir``) it writes under."""
    out = workdir / "out"
    out.mkdir()
    values = {"{out}": str(out), "{jobs}": str(jobs)}
    if "scenario" in row:
        scenario = workdir / "scenario.toml"
        template = (ROOT / row["scenario"]).read_text()
        scenario.write_text(template.replace("{out}", str(out)))
        values["{scenario}"] = str(scenario)
    argv = []
    for arg in row["command"].split():
        for placeholder, value in values.items():
            arg = arg.replace(placeholder, value)
        argv.append(arg)
    return argv, out


def without_git(record: bytes) -> bytes:
    """A ledger record with ``git`` dropped from its meta line."""
    meta, newline, rest = record.partition(b"\n")
    doc = json.loads(meta)
    del doc["git"]
    return json.dumps(doc, sort_keys=True).encode() + newline + rest


def artifact_digests(out: pathlib.Path, stdout: bytes) -> Dict[str, str]:
    """SHA-256 of ``stdout`` and of every file under ``out``."""
    artifacts = {"stdout": stdout}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            name = path.relative_to(out).as_posix()
            data = path.read_bytes()
            artifacts[name] = (without_git(data)
                               if name.startswith("ledger/") else data)
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in artifacts.items()}


def same_as_differences(rows: List[dict]) -> List[str]:
    """Every artifact a ``same_as`` pair should share but does not."""
    by_name = {row["name"]: row for row in rows}
    differences = []
    for row in rows:
        pair = row.get("same_as")
        if pair is None:
            continue
        partner = by_name[pair["row"]]
        for artifact in pair["artifacts"]:
            mine = row["artifacts"].get(artifact, "(absent)")
            theirs = partner["artifacts"].get(artifact, "(absent)")
            if mine == "(absent)" or mine != theirs:
                differences.append(
                    f"{row['name']} vs {partner['name']}: {artifact} "
                    f"{mine} != {theirs}")
    return differences


ROWS = json.loads(TABLE.read_text())["rows"]


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_row_reproduces_its_digests(row, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # rows name repo files by relative path
    argv, out = command_for(row, tmp_path, jobs=2)
    assert main(argv) == 0
    got = artifact_digests(out, capsys.readouterr().out.encode())
    want = row["artifacts"]
    moved = [
        f"  {name}: stored {want.get(name, '(absent)')}, "
        f"got {got.get(name, '(absent)')}"
        for name in sorted(set(want) | set(got))
        if want.get(name) != got.get(name)
    ]
    assert not moved, (
        f"row {row['name']!r} at --jobs 2 differs from {TABLE.name}:\n"
        + "\n".join(moved)
        + f"\nif the change is meant to move output, regenerate with: "
          f"{REGENERATE}"
    )


def test_same_as_rows_share_their_artifacts():
    assert not same_as_differences(ROWS)


def test_rows_that_take_jobs_really_fork():
    """``--jobs 2`` forks workers only when there are shards to hand
    out."""
    for row in ROWS:
        if "{jobs}" not in row["command"]:
            continue  # deploy takes no --jobs: cross-commit pin only
        argv = (load_scenario(ROOT / row["scenario"]).argv
                if "scenario" in row else row["command"].split())
        assert int(argv[argv.index("--shards") + 1]) >= 2, row["name"]
