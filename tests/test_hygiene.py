"""Source hygiene: every name a module imports is read somewhere in it, and
every function, class or constant it defines at module level is named
somewhere other than its own definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plectic"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a definition may be used: the other modules, the tests and the demos
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """Names bound by an import (at any depth) that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def bound_names(stmt):
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds (the module's constants)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return []


def definitions(source):
    """Module-level functions, classes and constants."""
    return [name for stmt in ast.parse(source).body
            for name in bound_names(stmt)]


def public_definitions(source):
    """Public module-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source):
    """Names a module reads, imports or takes as an attribute, leaving out
    a definition's references to itself."""
    refs = set()
    for stmt in ast.parse(source).body:
        own = bound_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name not in own:
                refs.add(name)
    return refs


REFERENCED = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                           for p in READERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_named_elsewhere(path):
    names = public_definitions(path.read_text(encoding="utf-8"))
    assert [n for n in names if n not in REFERENCED] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_and_constant_is_named_elsewhere(path):
    source = path.read_text(encoding="utf-8")
    public = public_definitions(source)
    names = [n for n in definitions(source) if n not in public]
    assert [n for n in names if n not in REFERENCED] == []


def test_unreferenced_definition_is_found():
    source = ("import operator\n\n"
              "LIMIT = 3\n"
              "UNREAD = _CACHE = {}\n\n"
              "def used():\n    return operator.add(_CACHE, LIMIT)\n\n"
              "def recursive():\n    return recursive()\n\n"
              "class Kept:\n    pass\n\n"
              "def _private():\n    return _private()\n")
    reader = "from m import Kept\nused()\n"
    refs = referenced_names(source) | referenced_names(reader)
    assert [n for n in public_definitions(source) if n not in refs] == \
        ["recursive"]
    assert [n for n in definitions(source) if n not in refs] == \
        ["UNREAD", "recursive", "_private"]


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == [(1, "math"), (2, "s")]
