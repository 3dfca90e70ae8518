"""Every name a ``qozcp`` module imports is used there or re-exported, and
every private top-level function or class is referenced in the package."""

import ast
import pathlib

import pytest

import qozcp

PACKAGE = pathlib.Path(qozcp.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom numpy import fft, pi\n__all__ = ['pi']\n")
    assert _unused_imports(tree) == ["os (line 1)", "fft (line 2)"]


def _unreferenced_private(trees: list[ast.Module]) -> list[str]:
    defined = {node.name: node.lineno for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in loaded]


def test_no_unreferenced_private_helpers():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced_private(trees) == []


def test_unreferenced_private_helper_is_reported():
    # A docstring mention or a store is no reference; an attribute load is.
    tree = ast.parse(
        "def _used():\n    pass\n"
        "def _dead():\n    '_used, _dead'\n"
        "class _Gone:\n    pass\n"
        "_Gone = None\n"
        "def public(obj):\n    return _used(), obj._attr\n"
        "def _attr():\n    pass\n"
    )
    assert _unreferenced_private([tree]) == ["_dead (line 3)", "_Gone (line 5)"]
