#!/usr/bin/env python
"""Regenerate the artifact digests in tests/data/digests.json.

Runs every row of the table at ``--jobs 1``, each in a fresh
interpreter with ``PYTHONHASHSEED`` unset, and rewrites the SHA-256 of
every artifact it writes (see tests/test_digests.py for what counts as
one).  Names, commands, scenarios and ``same_as`` pairs are left as
they are.  A table in which a ``same_as`` pair's shared artifacts
differ is not written: the script names them and exits 1.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_digests.py

tests/test_digests.py reruns each row at ``--jobs 2`` against the
table.  Regenerate only with a change that means to move output, and
commit the table with it: its diff names every artifact that moved.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_digests import (  # noqa: E402
    TABLE,
    artifact_digests,
    command_for,
    same_as_differences,
)


def run_row(row: dict) -> dict:
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONHASHSEED"}
    env["PYTHONIOENCODING"] = "utf-8"  # as the test encodes stdout
    with tempfile.TemporaryDirectory() as workdir:
        argv, out = command_for(row, pathlib.Path(workdir), jobs=1)
        run = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
            capture_output=True,
        )
        if run.returncode != 0:
            sys.exit(f"{row['name']}: exit {run.returncode}\n"
                     f"{run.stderr.decode()}")
        return artifact_digests(out, run.stdout)


def main() -> int:
    table = json.loads(TABLE.read_text())
    for row in table["rows"]:
        row["artifacts"] = run_row(row)
        print(f"{row['name']}: {len(row['artifacts'])} artifacts")
    differences = same_as_differences(table["rows"])
    if differences:
        print(f"not writing {TABLE}: same_as pairs differ",
              file=sys.stderr)
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)
        return 1
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
