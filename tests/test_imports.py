"""Every name a cckit module imports is used in that module, no cckit
module imports a sibling's underscore name, every module-level
underscore name is used in the module that defines it, every error
class but the base is raised somewhere, and importing the command line
pulls in none of the modules a cold start cannot afford."""

import ast
import pathlib
import subprocess
import sys

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


def unused_private_names(tree):
    """(line, name) of each module-level underscore function, class or
    assignment target that the module never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined.setdefault(n.id, node.lineno)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        (line, name)
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    assert unused_private_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unused_private_name():
    tree = ast.parse(
        "__version__ = '1'\n"
        "_LIMIT = 3\n"
        "_seen, _count = set(), 0\n"
        "_count += 1\n"
        "def _helper(): return _LIMIT\n"
        "def _dead(): return _helper()\n"
        "class _Gone: pass\n"
        "def public(): return _seen\n"
    )
    assert unused_private_names(tree) == [(3, "_count"), (6, "_dead"), (7, "_Gone")]


def unraised_error_classes(errors_tree, module_trees):
    """Classes defined in errors_tree, other than CckitError, that no
    ``raise`` in module_trees names."""
    raised = set()
    for tree in module_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(
        node.name
        for node in errors_tree.body
        if isinstance(node, ast.ClassDef) and node.name not in raised | {"CckitError"}
    )


def test_every_error_class_is_raised():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    errors = trees.pop("errors.py")
    assert unraised_error_classes(errors, trees.values()) == []


def test_the_scan_sees_an_unraised_error_class():
    errors = ast.parse(
        "class CckitError(Exception): pass\n"
        "class Called(CckitError): pass\n"
        "class Bare(CckitError): pass\n"
        "class Caught(CckitError): pass\n"
        "class Built(CckitError): pass\n"
        "class SelfRaised(CckitError):\n"
        "    def fail(self): raise SelfRaised()\n"
    )
    modules = [
        ast.parse("raise Called('x')\n"),
        ast.parse("try:\n    raise Bare\nexcept Caught:\n    raise\nerr = Built('unused')\n"),
    ]
    assert unraised_error_classes(errors, modules) == ["Built", "Caught", "SelfRaised"]


# Run in a fresh ``python -I``: prints the modules that importing cckit.cli
# adds to those the bare interpreter (and its ``site``) already had.
COLD_START = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cckit.cli\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


def test_importing_the_cli_imports_no_dataclasses_inspect_or_typing():
    done = subprocess.run([sys.executable, "-I", "-c", COLD_START, str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    new = set(done.stdout.split())
    assert {"cckit", "cckit.cli", "cckit.verify"} <= new
    assert new & {"dataclasses", "inspect", "typing"} == set()
