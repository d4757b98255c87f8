"""Every public function, class and method of the package has a use: some
module under src/, scripts/ or perfbench/ names it outside its own
definition.  A routine that only the tests call belongs in tests/oracles.py.

A use is a name, an attribute, an imported name, or one part of a dotted
string such as perfbench's "cyclo.CyclotomicInt.power"."""
from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qperiod").glob("*.py"))
USERS = sorted(
    path for top in ("src", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py")
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree: ast.Module) -> list[ast.AST]:
    """The public top-level functions and classes of a module, and the
    public methods of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found.append(node)
            if isinstance(node, ast.ClassDef):
                found += [m for m in node.body if isinstance(m, kinds) and not m.name.startswith("_")]
    return found


def uses(tree: ast.AST) -> list[tuple[str, int]]:
    """Each (name, line) that tree uses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def unused(package: dict[str, ast.Module], users: dict[str, ast.Module]) -> list[str]:
    """'file:name' for each public definition in package that no module of
    users names outside the definition's own lines."""
    used = defaultdict(list)
    for path, tree in users.items():
        for name, line in uses(tree):
            used[name].append((path, line))
    missing = []
    for path, tree in package.items():
        for node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in used[node.name]):
                missing.append(f"{Path(path).name}:{node.name}")
    return missing


def parse(paths) -> dict[str, ast.Module]:
    return {str(p): ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def test_every_public_name_has_a_use():
    assert unused(parse(PACKAGE), parse(USERS)) == []


@pytest.mark.parametrize(
    "user, verdict",
    [
        ("", ["mod.py:helper", "mod.py:Box", "mod.py:size"]),
        ("from mod import helper", ["mod.py:Box", "mod.py:size"]),
        ("x = mod.Box(1).size()", ["mod.py:helper"]),
        ("GROUPS = {'mod.Box.size', 'mod.helper'}", []),
        ("'a helper in prose'", ["mod.py:helper", "mod.py:Box", "mod.py:size"]),
    ],
)
def test_guard_finds_each_kind_of_use(user, verdict):
    source = "def helper():\n    return helper()\n\nclass Box:\n    def size(self):\n        return 1\n"
    package = {"mod.py": ast.parse(source)}
    assert unused(package, package | {"user.py": ast.parse(user)}) == verdict
