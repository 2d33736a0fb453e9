"""The guides cannot name things that are gone.

Every path a guide spells in code font must exist in the checkout,
every ``repro <command>`` it tells a reader to type must be a real
subcommand, and every dotted ``repro.x.y[.Name]`` must import and
resolve, so deleting or renaming a file, command, module, class or
function fails here until the prose follows.
"""

import glob
import importlib
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
GUIDES = ["README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "DESIGN.md",
          ".claude/skills/verify/SKILL.md"]

#: A repo path with a file extension (``tests/x.py``, not ``src/``).
REPO_FILE = re.compile(
    r"^(?:benchmarks|scripts|examples|tests|src)/\S*\.\w+$")
#: ``[VAR=x ...] [python -m] repro <command>`` opening a shell line.
REPRO_COMMAND = re.compile(
    r"^(?:\w+=\S+\s+)*(?:python3? -m )?repro\s+([a-z][\w-]*)")
SHELL_FENCES = ("```bash", "```sh", "```shell", "```console")


def _code(guide):
    """``(inline spans + fenced lines, fenced shell lines)``."""
    code, shell = [], []
    fence = None
    for line in (ROOT / guide).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = None if fence is not None else stripped
        elif fence is None:
            code.extend(re.findall(r"`([^`]+)`", line))
        else:
            code.append(line)
            if fence in SHELL_FENCES:
                shell.append(stripped)
    return code, shell


@pytest.mark.parametrize("guide", GUIDES)
def test_named_files_exist(guide):
    code, _ = _code(guide)
    named = {
        token.split("::")[0].strip("\"'(),;:")
        for chunk in code for token in chunk.split()
    }
    missing = sorted(
        path for path in named
        if REPO_FILE.match(path)
        and not (glob.glob(str(ROOT / path)) if "*" in path
                 else (ROOT / path).exists())
    )
    assert not missing, f"{guide} names files that do not exist"


@pytest.mark.parametrize("guide", GUIDES)
def test_named_subcommands_exist(guide):
    commands = next(
        action.choices for action in build_parser()._actions
        if action.dest == "command"
    )
    _, shell = _code(guide)
    typed = {
        match.group(1)
        for match in map(REPRO_COMMAND.match, shell) if match
    }
    unknown = sorted(typed - set(commands))
    assert not unknown, f"{guide} runs subcommands repro does not have"


#: A dotted Python name under the package: ``repro.x.y[.Name]``.
PYTHON_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(dotted):
    """Import the longest module prefix, ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("guide", GUIDES)
def test_named_python_names_resolve(guide):
    code, _ = _code(guide)
    named = {
        match for chunk in code for match in PYTHON_NAME.findall(chunk)
    }
    unresolved = sorted(name for name in named if not _resolves(name))
    assert not unresolved, f"{guide} names Python objects that are gone"
