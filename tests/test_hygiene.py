"""Source hygiene: every name a module imports is read somewhere in it, and
every function, class or constant it defines at module level is named
somewhere other than its own definition; every function, class and method
is named in `src` itself, so `src` holds only what `plectic verify` runs;
every error class is raised; the library imports only the standard
library; and the names README gives in backticks still exist."""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from plectic.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plectic"
# the package's __init__ among them: a name it imported only to re-export
# would be an unread import
MODULES = sorted(SRC.glob("*.py"))
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


def third_party_imports(source):
    """Top-level modules of the absolute imports that are not in the
    standard library; relative imports are the package's own."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return sorted(tops - sys.stdlib_module_names)


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


def test_src_imports_only_the_standard_library():
    found = {p.name: third_party_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


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


def raised_names(source):
    """Names a `raise` statement raises, as `raise X`, `raise X(...)` or
    `raise m.X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # an error class that no module raises is a fault nothing reports
    errors = SRC / "errors.py"
    classes = public_definitions(errors.read_text(encoding="utf-8"))
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8"))
                           for p in MODULES if p != errors))
    assert [n for n in classes if n != "PlecticError" and n not in raised] == []


def test_raised_names_are_found():
    source = ("def f(x):\n    if x:\n        raise A('a')\n"
              "    try:\n        g()\n    except B:\n        raise\n"
              "    raise errors.C from None\n\n"
              "class D(Exception):\n    pass\n")
    assert raised_names(source) == {"A", "C"}


def agreement_calls(source):
    """Each module-level function or method (`Class.method`) that calls
    `.agreement(`, nested functions and lambdas counting as their
    enclosing one."""
    def calls(node):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "agreement" for n in ast.walk(node))

    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            found += ["%s.%s" % (stmt.name, f.name) for f in stmt.body
                      if isinstance(f, ast.FunctionDef) and calls(f)]
        elif isinstance(stmt, ast.FunctionDef) and calls(stmt):
            found.append(stmt.name)
    return found


def test_only_report_add_computes_a_margin():
    # the suites and the verdict functions hand over the compared values
    runner = (SRC / "runner.py").read_text(encoding="utf-8")
    assert agreement_calls(runner) == ["Report.add"]
    ops = agreement_calls((SRC / "plectic_ops.py").read_text(encoding="utf-8"))
    verdicts = ("sign_check", "factorization_check", "algebraicity_check")
    assert [name for name in ops if name in verdicts] == []


def test_agreement_calls_are_found():
    source = ("class R:\n    def add(self, a, b):\n"
              "        return min(map(lambda x: x.agreement(b), a))\n"
              "    def other(self):\n        return 0\n\n"
              "def suite(x):\n    def inner():\n"
              "        return x.agreement(x)\n    return inner\n\n"
              "def clean(x):\n    return agreement(x)\n")
    assert agreement_calls(source) == ["R.add", "suite"]


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


def test_third_party_import_is_found():
    source = ("import os.path\nimport sympy.core as sc\nfrom . import padic\n"
              "from .padic import INF\nfrom fractions import Fraction\n"
              "from hypothesis import given\n")
    assert third_party_imports(source) == ["hypothesis", "sympy"]


def _names_in(node):
    """How often each name is read, imported or taken as an attribute
    anywhere in `node`."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name] += 1
    return counts


def unread_src_names(sources):
    """`file:name` of each module-level function or class, and each method
    that is not a dunder, that no source in `sources` (file -> text) names
    outside its own definition.  Names are matched alone, so a method
    passes when another one of the same name is read."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_names_in(tree) for tree in trees.values()), Counter())
    unread = []
    for name, tree in trees.items():
        defs = [stmt for stmt in tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
        defs += [f for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for f in cls.body if isinstance(f, ast.FunctionDef)
                 and not (f.name.startswith("__") and f.name.endswith("__"))]
        unread += ["%s:%s" % (name, d.name) for d in defs
                   if total[d.name] == _names_in(d)[d.name]]
    return sorted(unread)


def test_every_src_name_is_read_in_src():
    """src holds what `plectic verify` runs: a name that only tests or demos
    read lives with them.  The match is by name, so it cannot see a method
    such as QuadExtScalar.truncate come back: PadicScalar.truncate, which
    src reads, shares the name."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_src_names(sources) == []


def test_unread_src_names_are_found():
    sources = {
        "a.py": ("class A:\n    def __eq__(self, o):\n        return True\n"
                 "    def used(self):\n        return self.helper()\n"
                 "    def helper(self):\n        return self.helper\n"
                 "    def unread(self):\n        return self.unread()\n\n"
                 "def lone():\n    return lone()\n"),
        "b.py": "from a import A\n\nA().used()\n",
    }
    assert unread_src_names(sources) == ["a.py:lone", "a.py:unread"]


def readme_names(text, heads):
    """The names in the backticked spans of `text`, code blocks aside: each
    dotted name whose first part is in `heads`, and each span that is one
    private name `_x`."""
    dotted, private = [], []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        if re.fullmatch(r"_\w+", span):
            private.append(span)
        dotted += [name for name in re.findall(r"(?<![\w.])\w+(?:\.\w+)+", span)
                   if name.split(".")[0] in heads]
    return dotted, private


def resolves(name, scopes):
    """Whether each part of a dotted name is an attribute of the one before,
    the first looked up in `scopes`."""
    head, *rest = name.split(".")
    obj = scopes[head]
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_dotted_names_resolve():
    """Every `module.name` or `Class.name` README gives (a `plectic` module
    or class first) is an attribute, the name of a check in a golden report
    or an attribute of a parsed `Scenario`; every private `_x` it gives is
    defined in a module or class.  A deleted or renamed name fails here."""
    modules = {p.stem: importlib.import_module("plectic." + p.stem)
               for p in MODULES if p.stem != "__init__"}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__.startswith("plectic.")}
    scopes = dict(classes, **modules, plectic=importlib.import_module("plectic"))
    checks = {line.split("=")[0] for path in (ROOT / "bench" / "expected").glob("*.kv")
              for line in path.read_text(encoding="utf-8").splitlines()}
    parsed = dict(scopes, Scenario=load_scenario(ROOT / "scenarios" / "t2-split.kv"))
    dotted, private = readme_names((ROOT / "README.md").read_text(encoding="utf-8"),
                                   scopes)
    assert dotted and private
    assert [name for name in dotted if not resolves(name, scopes)
            and name not in checks and not resolves(name, parsed)] == []
    assert [name for name in private
            if not any(hasattr(scope, name) for scope in scopes.values())] == []


def test_readme_names_are_found():
    text = ("`plectic.padic` and `padic.plog(u)`, `x.y`, `_dot`, `a _b`\n"
            "```\n`padic.gone`\n```\nand `Report.add` over\n`units.gone`.\n")
    assert readme_names(text, {"plectic", "padic", "Report", "units"}) == (
        ["plectic.padic", "padic.plog", "Report.add", "units.gone"], ["_dot"])
    scopes = {"padic": importlib.import_module("plectic.padic")}
    assert resolves("padic.PadicScalar.agreement", scopes)
    assert not resolves("padic.PadicScalar.gone", scopes)
