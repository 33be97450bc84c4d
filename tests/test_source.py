"""Checks on the package source itself, read with ``ast``."""

import ast
import pathlib

import pytest

import gammaexc

PACKAGE = pathlib.Path(gammaexc.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")  # __init__ re-exports


def _unread_imports(source):
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finds_an_unread_import():
    source = "import os, sys\nfrom x import a, b as c\nprint(sys, c)\n"
    assert _unread_imports(source) == ["os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []
