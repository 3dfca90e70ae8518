"""Every name a ``qozcp`` module imports is used there or re-exported, every
private top-level function or class is referenced in the package, and a
module's ``__all__`` lists exactly its public top-level functions and classes
plus the names it re-exports."""

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


def _export_mismatches(tree: ast.Module) -> list[str]:
    exported = None
    public = {}
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public[node.name] = node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
    if exported is None:
        return []
    return ([f"{name} (line {line}) missing from __all__" for name, line in public.items()
             if name not in exported]
            + [f"{name} in __all__ is not bound" for name in exported if name not in bound])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_lists_public_names(path):
    assert _export_mismatches(ast.parse(path.read_text())) == []


def test_all_mismatch_is_reported():
    # A module without __all__ is not checked; private names need no entry.
    assert _export_mismatches(ast.parse("def public():\n    pass\n")) == []
    tree = ast.parse(
        "from numpy import pi\n"
        "__all__ = ['pi', 'listed', 'Gone', 'VERSION']\n"
        "VERSION = 1\n"
        "def listed():\n    pass\n"
        "def unlisted():\n    pass\n"
        "def _private():\n    pass\n"
        "class Hidden:\n    pass\n"
    )
    assert _export_mismatches(tree) == [
        "unlisted (line 6) missing from __all__",
        "Hidden (line 10) missing from __all__",
        "Gone in __all__ is not bound",
    ]
