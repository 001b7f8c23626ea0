"""Every name a package module imports or keeps private is used in that module.

No linter ships with the package, so this scans each module's syntax tree:
an imported name that no expression in the module references fails the test.
``__init__.py`` is left out, since its imports are the package's exports.
A module-level private name (``_name``: a function, class or assignment) must
be read by another top-level statement of its module; a deletion that leaves
one behind, or a function that only calls itself, fails the test.
"""

import ast
from pathlib import Path

import pytest

import springerloc

MODULES = sorted(path for path in Path(springerloc.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def orphaned_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
    readers = {name: set() for name in defined}  # top-level statements
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in readers):
                readers[node.id].add(id(stmt))
    return [f"line {stmt.lineno}: {name}" for name, stmt in defined.items()
            if not readers[name] - {id(stmt)}]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: argv"]


def test_the_scan_finds_an_orphaned_private_name():
    source = ("_ONE = 1\n_TWO = 2\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "def _used():\n    return _TWO\n"
              "class Public:\n    pass\n"
              "print(_used(), Public)\n")
    assert orphaned_private_names(source) == ["line 1: _ONE", "line 3: _loop"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_orphaned_private_name(path):
    assert orphaned_private_names(path.read_text(encoding="utf-8")) == []
