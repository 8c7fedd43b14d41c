"""The package's standing source constraints, checked on its syntax trees.

* No builtin ``sum()``: its float summation is compensated from Python 3.12 on, so the pinned
  bits of GTH elimination and the golden digests would differ between interpreters.
* No ``scipy`` import: numpy is the package's one dependency.
* One function-level import, :func:`internal_dynamics.verify_equivalence`'s of ``runner``,
  which imports that module: every other import sits at the top of its module.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "ce_dynamics").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def test_the_package_has_sources():
    assert {"games.py", "metrics.py", "omwu.py", "runner.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_builtin_sum(name):
    calls = [node.lineno for node in ast.walk(TREES[name]) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert calls == [], f"builtin sum() in {name} at lines {calls}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_scipy_import(name):
    modules = [alias.name for node in ast.walk(TREES[name]) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(TREES[name])
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == [], name


def test_one_function_level_import():
    found = []
    for name, tree in TREES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(name, scope.name) for node in ast.walk(scope)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == [("internal_dynamics.py", "verify_equivalence")]
