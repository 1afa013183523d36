"""Every name a cckit module imports is used in that module, and no
cckit module imports a sibling's underscore name."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cckit"


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Optional, Sequence\n"
        "__all__ = ['Sequence']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(tree) == [(2, "system"), (3, "Optional")]


def private_imports(tree):
    """(line, name) of each underscore name imported from a cckit module."""
    return sorted(
        (node.lineno, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cckit")
        for a in node.names
        if a.name.startswith("_")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .verify import SUITES, _SUITES\n"
        "from cckit.reductions import _sm_rail_prefix as prefix\n"
        "from . import _private\n"
    )
    assert private_imports(tree) == [
        (3, "_SUITES"), (4, "_sm_rail_prefix"), (5, "_private"),
    ]
