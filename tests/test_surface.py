"""Every public function, class, method and module constant of the
package has a use: some module under src/, scripts/ or perfbench/ names it
outside its own definition.  A routine or a constant that only the tests
call belongs in tests/oracles.py or in the test that reads it.
No module of the package imports a private name from another: what a
sibling needs is public, and so checked for a use like every public name.
The CLI holds no argument rule of its own: it names no is_prime, and it
turns no library ValueError into a usage error by hand, since the library
refuses with InputError and main reports that.
The output format lives in cli.py, which builds every JSON field and text
line: no class of the package defines to_json, and no module but
modular.py, qpoly.py and cli.py names encode_int, since
qpoly.poly_to_json is the one serializer that the library keeps.

A use is a name, an attribute, an imported name, or one part of a dotted
string such as perfbench's "cyclo.CyclotomicInt.power".  A module that
binds a name itself, at its top level or in a class body, names its own
binding: its uses of that name count for no other module.

Importing every module of the package loads neither dataclasses nor
inspect, which dataclasses imports: they and the code dataclasses writes
for each class cost every process start-up time and memory (README,
CLI), and the package's value types are NamedTuples that need neither.

Every defaulted parameter of a package function or method is passed by
some call in src/, scripts/ or perfbench/, by position or by keyword: a
parameter that every caller leaves at its default is a knob with one
value.  Calls are matched by the callee's name alone, a call that spreads
*args or **kwargs passes every parameter, and a function's calls of its
own name do not count.  So the guard is conservative: one caller that
passes an argument to a method passes it for every method of that
name."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qperiod").glob("*.py"))
USERS = sorted(
    path for top in ("src", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py")
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
# the modules that may name encode_int: its own, and those of the two
# serializers, qpoly.poly_to_json and the CLI
SERIALIZERS = {"modular.py", "qpoly.py", "cli.py"}


def bindings(body: list[ast.stmt]) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each function, class or assigned name that the
    statements of body bind."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                found += [(n.id, node) for n in names if isinstance(n, ast.Name)]
    return found


def definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The public top-level functions, classes and constants of a module,
    and the public methods of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for name, node in bindings(tree.body):
        if not name.startswith("_"):
            found.append((name, node))
            if isinstance(node, ast.ClassDef):
                found += [(m.name, m) for m in node.body
                          if isinstance(m, kinds) and not m.name.startswith("_")]
    return found


def bound(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level or in a class body there."""
    names = set()
    for name, node in bindings(tree.body):
        names.add(name)
        if isinstance(node, ast.ClassDef):
            names.update(n for n, _ in bindings(node.body))
    return names


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
    users names outside the definition's own lines, counting a module's
    use of a name it binds itself only for its own definitions."""
    used = defaultdict(list)
    for path, tree in users.items():
        own_names = bound(tree)
        for name, line in uses(tree):
            used[name].append((path, line, name in own_names))
    missing = []
    for path, tree in package.items():
        for name, node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(line in own if p == path else shadowed for p, line, shadowed in used[name]):
                missing.append(f"{Path(path).name}:{name}")
    return missing


def calls(tree: ast.AST) -> list[tuple[str, int, int, set[str], bool]]:
    """(name, line, positional count, keywords, spread) for each call in
    tree of a name or an attribute; spread is whether it passes *args or
    **kwargs."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            keywords = {k.arg for k in node.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            found.append((name, node.lineno, len(node.args), keywords, spread))
    return found


def defaulted(tree: ast.Module) -> list[tuple[str, ast.FunctionDef, str, int | None]]:
    """(qualified name, definition, parameter, index among the arguments a
    call passes, None for keyword-only) for each defaulted parameter of
    each top-level function and method; a method's self or cls is no
    argument of the call."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list)
                    functions.append((f"{node.name}.{m.name}", m, 0 if static else 1))
    found = []
    for qualified, fn, skip in functions:
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found += [(qualified, fn, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        found += [(qualified, fn, arg.arg, None)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return found


def unset(package: dict[str, ast.Module], users: dict[str, ast.Module]) -> list[str]:
    """'file:function(parameter)' for each defaulted parameter in package
    that no call of the function's name in users passes, outside the
    function's own lines."""
    shapes = defaultdict(list)
    for path, tree in users.items():
        for name, line, count, keywords, spread in calls(tree):
            shapes[name].append((path, line, count, keywords, spread))
    missing = []
    for path, tree in package.items():
        for qualified, fn, param, index in defaulted(tree):
            own = range(fn.lineno, fn.end_lineno + 1)
            if not any(
                spread or param in keywords or (index is not None and count > index)
                for p, line, count, keywords, spread in shapes[fn.name]
                if not (p == path and line in own)
            ):
                missing.append(f"{Path(path).name}:{qualified}({param})")
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


def report_formats(package: dict[str, ast.Module]) -> list[str]:
    """'file:Class.to_json' for each class in package that defines
    to_json, and 'file:encode_int' for each module outside SERIALIZERS
    that names encode_int."""
    found = []
    for path, tree in package.items():
        name = Path(path).name
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [f"{name}:{node.name}.to_json" for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name == "to_json"]
        if name not in SERIALIZERS and any(used == "encode_int" for used, _ in uses(tree)):
            found.append(f"{name}:encode_int")
    return found


def test_only_the_cli_writes_reports():
    assert report_formats(parse(PACKAGE)) == []


@pytest.mark.parametrize(
    "name, source, verdict",
    [
        ("tau.py", "class Report:\n    def to_json(self):\n        return {}", ["tau.py:Report.to_json"]),
        ("cli.py", "class Row:\n    def to_json(self):\n        return {}", ["cli.py:Row.to_json"]),
        ("cyclo.py", "from .modular import encode_int", ["cyclo.py:encode_int"]),
        ("tau.py", "lifted = modular.encode_int(n)", ["tau.py:encode_int"]),
        ("cli.py", "from .modular import encode_int", []),
        ("qpoly.py", "def poly_to_json(f):\n    return [encode_int(c) for c in f]", []),
        ("tau.py", "def to_json(x):\n    return {}", []),
    ],
)
def test_report_format_guard(name, source, verdict):
    assert report_formats({name: ast.parse(source)}) == verdict


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


@pytest.mark.parametrize(
    "user, verdict",
    [
        ("", ["mod.py:LIMIT", "mod.py:ROWS"]),
        ("from mod import LIMIT", ["mod.py:ROWS"]),
        ("x = mod.LIMIT + len(ROWS)", []),
        ("LIMIT = 3\nprint(LIMIT, ROWS)", ["mod.py:LIMIT"]),
        ("class Job:\n    LIMIT = 3\n\n    def f(self):\n        return self.LIMIT",
         ["mod.py:LIMIT", "mod.py:ROWS"]),
    ],
)
def test_guard_counts_public_constants(user, verdict):
    # a module's own constant of the same name is not a use
    source = "LIMIT = 2\nROWS: tuple = ()\n_CACHE = {}\n"
    package = {"mod.py": ast.parse(source)}
    assert unused(package, package | {"user.py": ast.parse(user)}) == verdict


def test_every_defaulted_parameter_is_passed():
    assert unset(parse(PACKAGE), parse(USERS)) == []


KNOBS = """\
def scale(x, factor=2, *, unit="t"):
    return scale(x, factor + 1, unit=unit) if x else factor

class Box:
    def size(self, unit=1):
        return unit

    @staticmethod
    def build(n=0):
        return Box()
"""
ALL_KNOBS = ["mod.py:scale(factor)", "mod.py:scale(unit)", "mod.py:Box.size(unit)", "mod.py:Box.build(n)"]


@pytest.mark.parametrize(
    "user, verdict",
    [
        ("", ALL_KNOBS),
        ("scale(1, 3)", ALL_KNOBS[1:]),
        ("mod.scale(1, unit='q')", [ALL_KNOBS[0], *ALL_KNOBS[2:]]),
        ("scale(1)\nscale(x=1, factor=2)", ALL_KNOBS[1:]),
        ("args = (1, 2)\nscale(*args)", ALL_KNOBS[2:]),
        ("scale(1, **{'unit': 'q'})", ALL_KNOBS[2:]),
        ("Box().size()", ALL_KNOBS),
        ("Box().size(2)", ALL_KNOBS[:2] + ALL_KNOBS[3:]),
        ("Box.build(1)", ALL_KNOBS[:3]),
        ("Box.build()\nx.size(unit=3)", ALL_KNOBS[:2] + ALL_KNOBS[3:]),
    ],
)
def test_guard_finds_each_unset_parameter(user, verdict):
    # scale's call of itself passes both of its knobs but counts for neither
    package = {"mod.py": ast.parse(KNOBS)}
    assert unset(package, package | {"user.py": ast.parse(user)}) == verdict


def loaded_modules(imports: str) -> str:
    """Which of dataclasses and inspect a fresh interpreter has loaded
    after the statement imports, with the package on PYTHONPATH."""
    probe = f"{imports}\nimport sys\nprint(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_package_loads_no_dataclass_machinery():
    # measured against a bare interpreter started the same way, so that a
    # site .pth that imports either module does not fail the test
    modules = sorted(p.stem for p in PACKAGE if p.stem != "__init__")
    assert len(modules) == 7
    assert loaded_modules(f"import {', '.join(f'qperiod.{m}' for m in modules)}") == loaded_modules("pass")
