"""Checks on the package source itself, read with ``ast``."""

import ast
import pathlib

import pytest

import gammaexc

PACKAGE = pathlib.Path(gammaexc.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")  # __init__ re-exports
# where a frozen value may set its own fields: the records' shared __init__
FIELD_SETTERS = {("poly.py", "Record.__init__")}


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


def _setattr_scopes(source):
    """The dotted class and function scope of each ``object.__setattr__``
    in a module, called or not, in source order ("" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "object"):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_finds_object_setattr():
    source = ("class A:\n    def f(self):\n        object.__setattr__(self, 'x', 1)\n"
              "    class B:\n        set = object.__setattr__\n"
              "object.__setattr__(a, 'y', 2)\nsetattr(a, 'z', 3)\n")
    assert _setattr_scopes(source) == ["A.f", "A.B", ""]


def test_fields_are_set_only_by_the_shared_record_init():
    found = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope in _setattr_scopes(path.read_text())}
    assert found == FIELD_SETTERS
