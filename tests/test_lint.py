"""The package's standing source constraints, checked on its syntax trees.

* No builtin ``sum()``: its float summation is compensated from Python 3.12 on, so the pinned
  bits of GTH elimination and the golden digests would differ between interpreters.
* No ``scipy`` import: numpy is the package's one dependency.
* One function-level import, :func:`internal_dynamics.verify_equivalence`'s of ``runner``,
  which imports that module: every other import sits at the top of its module.
* No dynamics name is parsed: ``startswith``, ``endswith`` and ``split`` are called on no
  expression that names ``dynamics``, nor on ``_build_dynamics``' ``name``. Each question
  about a dynamics is answered by its learner class in ``metrics._LEARNERS``.
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


def _parses_a_dynamics_name(node, in_build: bool) -> bool:
    """Whether ``node`` calls ``startswith``, ``endswith`` or ``split`` on an expression that names
    ``dynamics``, or, inside ``_build_dynamics``, on one that names ``name``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("startswith", "endswith", "split")):
        return False
    read = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.func.value)
            if isinstance(n, (ast.Name, ast.Attribute))}
    return any("dynamics" in i for i in read) or in_build and "name" in read


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_dynamics_name_is_parsed(name):
    build = {id(node) for scope in ast.walk(TREES[name]) if isinstance(scope, ast.FunctionDef)
             and scope.name == "_build_dynamics" for node in ast.walk(scope)}
    calls = [node.lineno for node in ast.walk(TREES[name])
             if _parses_a_dynamics_name(node, id(node) in build)]
    assert calls == [], f"a dynamics name is parsed in {name} at lines {calls}"
