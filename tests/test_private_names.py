"""No module of ``lowrank`` reads another module's private name.

A private name (one leading underscore) belongs to its module; a caller
that needs it is a sign that the owning module lacks a public way in.
The walk flags ``from .x import _name`` and ``x._name`` on a ``lowrank``
module ``x`` imported by the file.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lowrank"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _lowrank_module(node: ast.ImportFrom):
    """The ``lowrank`` module an import takes names from: "" for the
    package itself, None for an import from outside it."""
    if node.level:
        return node.module or ""
    parts = (node.module or "").split(".")
    return ".".join(parts[1:]) if parts[0] == "lowrank" else None


def private_reads(source: str) -> list:
    """Each private name ``source`` takes from a ``lowrank`` module, as
    ``module._name``."""
    tree = ast.parse(source)
    modules, found = {}, []  # local name -> lowrank module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _lowrank_module(node)
            if owner is None:
                continue
            for alias in node.names:
                if owner == "" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{owner or 'lowrank'}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lowrank" and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_a_private_name_of_another(path):
    assert private_reads(path.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from . import explore\nexplore._families(layer, 'tt')",
     ["explore._families"]),
    ("from . import explore, score as s\ns._x\nexplore.census",
     ["score._x"]),
    ("from .costs import _helper, rank_bounds", ["costs._helper"]),
    ("from lowrank.explore import _families", ["explore._families"]),
    ("import lowrank.explore as ex\nex._boxes", ["explore._boxes"]),
    ("from . import explore\nexplore.__name__", []),
    ("import numpy as np\nnp._private\nself._memo", []),
])
def test_the_walk_flags_both_forms(source, found):
    assert private_reads(source) == found
