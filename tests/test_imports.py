"""Every name a ``qozcp`` module imports is used there or re-exported."""

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
