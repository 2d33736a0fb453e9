"""Declarative scenario files for ``repro run``.

A scenario file is the repo-wide TOML subset (see
:mod:`repro.obs.tomlsubset`) describing one pipeline run::

    [run]
    command = "traffic"      # crawl | model | privacy | explain |
                             # traffic | deploy | chaos

    [traffic]                # workload knobs (CLI flag names,
    users = 200              # underscores for dashes)
    sites = 40
    shards = 2
    scenario = "origin"

    [instrumentation]
    ledger = "runs/"
    slo = "slo.toml"

    [sinks]
    out = "traffic.jsonl"    # --out / --audit / --trace / metrics

    [render]
    tables = "1,2,3"         # crawl rendering knobs

Keys map 1:1 onto the command's CLI flags and are validated by the
same argparse parsers, so a scenario run is byte-identical to the
equivalent command line.  ``jobs`` is deliberately rejected: worker
count is an execution knob (it never changes results) and belongs to
``repro run --jobs``, not the experiment definition.

Anything outside the subset -- unknown sections, array tables, a
missing ``[run]`` -- is a loud :class:`ScenarioError`; ``repro run``
turns it into exit 2 with nothing executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.obs.tomlsubset import parse_toml_subset


class ScenarioError(ValueError):
    """The scenario file could not be parsed or validated."""


#: Commands a scenario may run (everything that takes only flags).
SCENARIO_COMMANDS = (
    "crawl", "model", "privacy", "explain", "traffic", "deploy",
    "chaos",
)

#: Accepted sections.  All non-``run`` sections flatten into flags;
#: the split is documentation (what part of the run a knob shapes),
#: not semantics.
SCENARIO_SECTIONS = (
    "run", "dataset", "traffic", "chaos", "instrumentation", "sinks",
    "render",
)

#: Execution knobs that never change results and therefore do not
#: belong in a scenario file.
EXECUTION_KEYS = frozenset({"jobs"})


@dataclass(frozen=True)
class Scenario:
    """One resolved scenario: a command plus its rendered flags."""

    command: str
    flags: Tuple[str, ...]
    source: str

    @property
    def argv(self) -> List[str]:
        """The full sub-command argv (``repro`` excluded)."""
        return [self.command, *self.flags]


def _render_flags(items, where: str) -> List[str]:
    flags: List[str] = []
    for key, value in items.items():
        if key in EXECUTION_KEYS:
            raise ScenarioError(
                f"{where}: {key!r} is an execution knob, not part of "
                f"the scenario; pass --{key} to 'repro run' instead"
            )
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.extend([flag, str(value)])
    return flags


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse a scenario file into a :class:`Scenario`."""
    tables = parse_toml_subset(text, source=source,
                               error=ScenarioError)
    command = None
    flags: List[str] = []
    for table in tables:
        if table.array:
            raise ScenarioError(
                f"{table.where}: scenario files use plain [section] "
                f"tables, got [[{table.name}]]"
            )
        if table.name not in SCENARIO_SECTIONS:
            raise ScenarioError(
                f"{table.where}: unknown section [{table.name}]; "
                f"expected one of "
                f"{', '.join(f'[{s}]' for s in SCENARIO_SECTIONS)}"
            )
        if table.name == "run":
            unknown = set(table.items) - {"command"}
            if unknown:
                raise ScenarioError(
                    f"{table.where}: unknown [run] key(s) "
                    f"{sorted(unknown)}; only 'command' is accepted"
                )
            command = table.items.get("command")
            if not isinstance(command, str):
                raise ScenarioError(
                    f"{table.where}: [run] needs a quoted "
                    f"'command = ...'"
                )
            if command not in SCENARIO_COMMANDS:
                raise ScenarioError(
                    f"{table.where}: unknown command {command!r}; "
                    f"expected one of {', '.join(SCENARIO_COMMANDS)}"
                )
            continue
        flags.extend(_render_flags(table.items, table.where))
    if command is None:
        raise ScenarioError(
            f"{source}: missing [run] section with 'command = ...'"
        )
    return Scenario(command=command, flags=tuple(flags),
                    source=source)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ScenarioError(f"cannot read {path}: {error}") from error
    return parse_scenario(text, source=str(path))
