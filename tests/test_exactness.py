"""The package decides every verdict by exact arithmetic: no module under
src/qperiod imports cmath, fractions or decimal, calls float() or
complex(), divides with / or /=, or holds a float or complex literal."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qperiod").glob("*.py"))

# modules whose numbers are floats, or rationals a verdict must not need
INEXACT_MODULES = ("cmath", "decimal", "fractions")


def _inexact(node: ast.AST) -> str | None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name in INEXACT_MODULES:
                return f"import {alias.name}"
    if isinstance(node, ast.ImportFrom) and node.module in INEXACT_MODULES:
        return f"from {node.module} import"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("float", "complex"):
            return f"{node.func.id}(...)"
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    return None


def inexact_uses(tree: ast.AST) -> list[str]:
    """Each inexact form in tree, as 'line N: what'."""
    return [f"line {node.lineno}: {what}" for node in ast.walk(tree) if (what := _inexact(node))]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "cyclo.py", "liedata.py", "tau.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_the_package(path):
    assert inexact_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import cmath",
        "from cmath import exp",
        "x = float(3)",
        "x = complex(1, 2)",
        "x = 1e-9",
        "x = 2j",
        "x = a / b",
        "x /= b",
        "import fractions",
        "from fractions import Fraction",
        "import decimal as d",
        "from decimal import Decimal",
    ],
)
def test_guard_catches_each_inexact_form(snippet):
    assert len(inexact_uses(ast.parse(snippet))) == 1
