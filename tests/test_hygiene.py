"""Source hygiene: every name a module imports is read somewhere in it, and
every public function or class it defines is named somewhere else."""

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
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
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


def test_unreferenced_definition_is_found():
    source = ("def used():\n    pass\n\n"
              "def recursive():\n    return recursive()\n\n"
              "class Kept:\n    pass\n\n"
              "def _private():\n    pass\n")
    reader = "from m import Kept\nused()\n"
    refs = referenced_names(source) | referenced_names(reader)
    assert [n for n in public_definitions(source) if n not in refs] == \
        ["recursive"]


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == [(1, "math"), (2, "s")]
