"""The traced benchmark run's tables hold for the package as it is.

``benchmarks/perf/traced.py`` wraps a fixed table of entry points
(``ENTRY_POINTS``) and charges every ``src/repro`` file to a layer by
``LAYER_RULES``.  A renamed target raises only when the traced run
installs it, and a file no rule matches lands in a fallback layer, so
both are checked here against the script itself, loaded by path and
not edited.
"""

import importlib
import importlib.util
import os
import pathlib

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(os.path.realpath(os.path.dirname(repro.__file__)))


def _load_traced():
    spec = importlib.util.spec_from_file_location(
        "perf_traced", ROOT / "benchmarks" / "perf" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_traced()


@pytest.mark.parametrize(
    "module_name, attr_path",
    [(module, attr) for _, module, attr in TRACED.ENTRY_POINTS],
    ids=[f"{module}:{attr}" for _, module, attr in TRACED.ENTRY_POINTS])
def test_every_entry_point_resolves(module_name, attr_path):
    """Resolved as ``traced.install`` does: a method from its class's
    own namespace, a function from its module."""
    owner = importlib.import_module(module_name)
    *parents, leaf = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    target = vars(owner).get(leaf) if parents else getattr(owner, leaf,
                                                           None)
    assert target is not None, f"{module_name}.{attr_path} is gone"


def test_every_module_matches_a_layer_rule():
    unmatched = set()
    layers = {
        TRACED._layer_of_file(str(path), str(PACKAGE), unmatched)
        for path in PACKAGE.rglob("*.py")
    }
    assert sorted(unmatched) == []
    assert layers <= set(TRACED.LAYERS)
