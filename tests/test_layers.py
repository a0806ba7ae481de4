"""Imports between the surface modules point one way: quiver -> build -> surface.

``surface`` holds states, flips, codes and seed extraction; ``build`` the
initial triangulations, their topology checks and the double cover; and
``quiver`` the twin-vertex layout, adjacency quivers included.  Every import
of a sibling module sits at module level, except the hook in
``lpsurf/__init__.py`` that loads ``quiver`` on first use, and ``poly``'s
imports of its packed kernels, which a command compiles only when it makes a
product or division at least ``poly.PACKED_PAIRS`` term pairs large.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lpsurf

PACKAGE = Path(lpsurf.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
DEFERRED = {
    "__init__.py": [("quiver", "__getattr__")],
    "poly.py": [("_packed", "mul"), ("_packed", "_divide_ordinary")],
}


def imports(path: Path) -> list[tuple[str, str, bool]]:
    """(imported module, enclosing function or "", relative?) per import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, function, False) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                targets = [child.module] if child.module else [a.name for a in child.names]
                found.extend((target, function, child.level > 0) for target in targets)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "")
    return found


def siblings(name: str) -> set[str]:
    return {target for target, _, relative in imports(PACKAGE / name) if relative}


def test_surface_imports_neither_build_nor_quiver():
    assert not siblings("surface.py") & {"build", "quiver"}


def test_build_imports_surface_but_not_quiver():
    assert "surface" in siblings("build.py") and "quiver" not in siblings("build.py")


def test_surface_has_no_function_level_import():
    assert [entry for entry in imports(PACKAGE / "surface.py") if entry[1]] == []


@pytest.mark.parametrize("name", MODULES)
def test_sibling_imports_sit_at_module_level(name):
    deferred = [(target, function) for target, function, relative in imports(PACKAGE / name)
                if relative and function]
    assert deferred == DEFERRED.get(name, [])



@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses(name):
    """The value classes derive from ``poly.Record``; ``dataclasses`` loads ``inspect``."""
    assert "dataclasses" not in {target for target, _, relative in imports(PACKAGE / name)
                                 if not relative}
