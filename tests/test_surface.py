"""Every public function, class and method of the package has a use: some
module under src/, scripts/ or perfbench/ names it outside its own
definition.  A routine that only the tests call belongs in tests/oracles.py.
No module of the package imports a private name from another: what a
sibling needs is public, and so checked for a use like every public name.
The CLI holds no argument rule of its own: it names no is_prime, and it
turns no library ValueError into a usage error by hand, since the library
refuses with InputError and main reports that.

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


def private_imports(package: dict[str, ast.Module]) -> list[str]:
    """'file:name' for each private name that a module of package imports
    from a sibling module of the package."""
    found = []
    for path, tree in package.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qperiod"
            ):
                names = [alias.name for alias in node.names]
                found += [f"{Path(path).name}:{n}" for n in names if n.startswith("_")]
    return found


def cli_argument_rules(tree: ast.Module) -> list[str]:
    """'line: what' for each use of is_prime, and each except clause that
    catches ValueError and calls some .error( in its body."""
    found = [f"{line}: is_prime" for name, line in uses(tree) if name == "is_prime"]
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "error"
                for stmt in node.body
                for call in ast.walk(stmt)
            ):
                found.append(f"{node.lineno}: except ValueError -> .error(")
    return found


def test_cli_holds_no_argument_rule():
    assert cli_argument_rules(ast.parse((ROOT / "src" / "qperiod" / "cli.py").read_text())) == []


@pytest.mark.parametrize(
    "source, verdict",
    [
        ("from .modular import is_prime", ["1: is_prime"]),
        ("ok = modular.is_prime(n)", ["1: is_prime"]),
        ("try:\n    f()\nexcept ValueError as exc:\n    sub.error(str(exc))",
         ["3: except ValueError -> .error("]),
        ("try:\n    f()\nexcept (KeyError, ValueError):\n    if x:\n        args.sub.error('no')",
         ["3: except ValueError -> .error("]),
        ("try:\n    f()\nexcept OSError as exc:\n    args.sub.error(str(exc))", []),
        ("try:\n    f()\nexcept ValueError:\n    raise TypeError('bad')", []),
        ("try:\n    f()\nexcept InputError as exc:\n    args.sub.error(str(exc))", []),
    ],
)
def test_cli_rule_guard(source, verdict):
    assert cli_argument_rules(ast.parse(source)) == verdict


def test_every_public_name_has_a_use():
    assert unused(parse(PACKAGE), parse(USERS)) == []


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(parse(PACKAGE)) == []


@pytest.mark.parametrize(
    "source, verdict",
    [
        ("from .cyclo import _peel, make", ["mod.py:_peel"]),
        ("from qperiod.cyclo import _peel", ["mod.py:_peel"]),
        ("from . import _helpers", ["mod.py:_helpers"]),
        ("from .cyclo import make\nfrom dataclasses import _MISSING_TYPE", []),
    ],
)
def test_private_import_guard(source, verdict):
    assert private_imports({"mod.py": ast.parse(source)}) == verdict


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
