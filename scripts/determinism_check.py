#!/usr/bin/env python3
"""The one determinism harness: ``--jobs`` must never change a byte.

    python scripts/determinism_check.py [--out-root DIR] -- CMD...

runs CMD at ``--jobs`` 1, then 2, with ``{jobs}`` and ``{out}``
substituted in every argument -- ``{out}`` is a fresh directory
``DIR/jobs<N>`` the command should write all its artifacts under; its
stdout is saved there too, as ``stdout.txt`` -- then

* compares every file under the output directories byte-for-byte (a
  file missing on one side is a difference), and
* runs ``repro audit-diff`` on every ``*audit*.jsonl`` pair, which
  also validates each reason code against the closed taxonomy.

Exit status: 0 identical; 1 a difference (the first differing file is
named on stderr); 2 CMD itself failed or the usage is wrong.  The
output directories are left in place for follow-up gates.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

JOB_COUNTS = (1, 2)


def run_variant(command: List[str], jobs: int, out: Path) -> None:
    """Run ``command`` with the placeholders filled in; raise
    ``CalledProcessError`` if it fails."""
    out.mkdir(parents=True)
    argv = [
        arg.replace("{jobs}", str(jobs)).replace("{out}", str(out))
        for arg in command
    ]
    with open(out / "stdout.txt", "wb") as stdout:
        subprocess.run(argv, stdout=stdout, check=True)


def files_under(root: Path) -> Dict[str, Path]:
    return {
        str(path.relative_to(root)): path
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def first_difference(base: Path, other: Path) -> Optional[str]:
    """Why the two output trees differ (naming the first differing
    file in sorted order), or ``None`` when they are identical."""
    base_files, other_files = files_under(base), files_under(other)
    for name in sorted(set(base_files) | set(other_files)):
        if name not in base_files or name not in other_files:
            present = base if name in base_files else other
            return f"{name}: only under {present}"
        if not filecmp.cmp(base_files[name], other_files[name],
                           shallow=False):
            return f"{name}: {base_files[name]} and {other_files[name]} differ"
        if fnmatch.fnmatch(Path(name).name, "*audit*.jsonl"):
            diff = subprocess.run(
                [sys.executable, "-m", "repro", "audit-diff",
                 str(base_files[name]), str(other_files[name])],
                stdout=subprocess.DEVNULL,
            )
            if diff.returncode != 0:
                return (f"{name}: repro audit-diff exited "
                        f"{diff.returncode}")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--out-root DIR] -- CMD...",
    )
    parser.add_argument("--out-root", type=Path, default=None,
                        help="where the jobs<N> output directories go "
                             "(default: a new temporary directory)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    if not command or not any("{jobs}" in arg for arg in command):
        parser.print_usage(sys.stderr)
        print("error: CMD must be given and must use {jobs}",
              file=sys.stderr)
        return 2
    root = args.out_root or Path(tempfile.mkdtemp(prefix="determinism-"))
    outs = [root / f"jobs{jobs}" for jobs in JOB_COUNTS]
    for jobs, out in zip(JOB_COUNTS, outs):
        try:
            run_variant(command, jobs, out)
        except (subprocess.CalledProcessError, OSError) as error:
            print(f"determinism_check: jobs={jobs}: {error}",
                  file=sys.stderr)
            return 2
    serial, parallel = JOB_COUNTS
    difference = first_difference(*outs)
    if difference is not None:
        print(f"determinism_check: jobs={serial} vs jobs={parallel}: "
              f"{difference}", file=sys.stderr)
        return 1
    print(f"determinism_check: {len(files_under(outs[0]))} files "
          f"identical at --jobs {serial} and {parallel} ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
