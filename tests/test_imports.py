"""Every name a package module imports or keeps private is used in that module.

No linter ships with the package, so this scans each module's syntax tree:
an imported name that no expression in the module references fails the test.
``__init__.py`` is left out, since its imports are the package's exports.
A module-level private name (``_name``: a function, class or assignment) must
be read by another top-level statement of its module; a deletion that leaves
one behind, or a function that only calls itself, fails the test.  A public
module-level name must be read there too, or by another package module, or
by the paper-criteria tests of ``test_acceptance.py``: the public API holds
only what the package and those criteria use.
"""

import ast
from pathlib import Path

import pytest

import springerloc

MODULES = sorted(path for path in Path(springerloc.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


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


def unread_names(source: str, private: bool,
                 outside: frozenset[str] = frozenset()) -> list[str]:
    """Module-level names, private (``_name``) or public, that no other
    top-level statement of the module reads and that are not in ``outside``."""
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
            if not name.startswith("__") and name.startswith("_") == private:
                defined[name] = stmt
    readers = {name: set() for name in defined}  # top-level statements
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in readers):
                readers[node.id].add(id(stmt))
    return [f"line {stmt.lineno}: {name}" for name, stmt in defined.items()
            if not readers[name] - {id(stmt)} and name not in outside]


def names_read(source: str) -> frozenset[str]:
    """Every name a module imports from elsewhere, loads or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return frozenset(names)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: argv"]


def test_the_scan_finds_an_orphaned_private_name():
    source = ("_ONE = 1\n_TWO = 2\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "def _used():\n    return _TWO\n"
              "class Public:\n    pass\n"
              "print(_used(), Public)\n")
    assert unread_names(source, private=True) == ["line 1: _ONE", "line 3: _loop"]


def test_the_scan_finds_an_unread_public_name():
    source = ("LIMIT = 3\nSHOWN = 4\n"
              "def helper():\n    return LIMIT\n"
              "def api():\n    return helper() + api()\n"
              "class Report:\n    pass\n")
    assert unread_names(source, private=False,
                        outside=frozenset({"SHOWN"})) == [
        "line 5: api", "line 7: Report"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_orphaned_private_name(path):
    assert unread_names(path.read_text(encoding="utf-8"), private=True) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_public_names_are_read_by_the_package_or_the_criteria(path):
    outside = frozenset().union(*(names_read(other.read_text(encoding="utf-8"))
                                  for other in [*MODULES, ACCEPTANCE]
                                  if other != path))
    assert unread_names(path.read_text(encoding="utf-8"), private=False,
                        outside=outside) == []
