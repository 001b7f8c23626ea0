"""Every name a package module imports or keeps private is used in that module.

No linter ships with the package, so this scans each module's syntax tree:
an imported name that no expression in the module references fails the test.
``__init__.py`` is left out, since its imports are the package's exports.
A module-level private name (``_name``: a function, class or assignment) must
be read by another top-level statement of its module; a deletion that leaves
one behind, or a function that only calls itself, fails the test.  A public
module-level name must be read there too, or by another package module, or
by the paper-criteria tests of ``test_acceptance.py``: the public API holds
only what the package and those criteria use.  The same holds for class
members: every method, property and dataclass field (dunders excluded) must be
read by its own module outside its definition, by another package module, by
``test_acceptance.py`` or by a benchmark script under ``perfbench/``, where a
string constant counts as a read (the tracer wraps methods by name).
"""

import ast
from pathlib import Path

import pytest

import springerloc

MODULES = sorted(path for path in Path(springerloc.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PERFBENCH = sorted(Path(__file__).resolve().parents[1].glob("perfbench/*.py"))


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


def strings_read(source: str) -> frozenset[str]:
    """``names_read`` plus every string constant of a module."""
    return names_read(source) | {
        node.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unread_members(source: str, outside: frozenset[str] = frozenset()) -> list[str]:
    """Methods, properties and annotated fields of the module's classes that
    nothing in the module reads outside their own definition and that are
    not in ``outside``."""
    tree = ast.parse(source)
    reads = [(node.attr if isinstance(node, ast.Attribute) else node.id, node)
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))
             and isinstance(node.ctx, ast.Load)]
    out = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                name = stmt.name
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
            else:
                continue
            own = {id(node) for node in ast.walk(stmt)}
            if (name.startswith("__") or name in outside
                    or any(read == name and id(node) not in own
                           for read, node in reads)):
                continue
            out.append(f"line {stmt.lineno}: {cls.name}.{name}")
    return out


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


def test_the_scan_finds_an_unread_member():
    source = ("class Report:\n    count: int\n    shown: int\n    seen: int\n"
              "    def loop(self):\n        return self.loop()\n"
              "    def helper(self):\n        return self.count\n"
              "    @property\n    def size(self):\n        return self.helper()\n"
              "    def __len__(self):\n        return 0\n"
              "def api(rep):\n    return rep.size\n")
    assert unread_members(source, outside=frozenset({"shown"})) == [
        "line 4: Report.seen", "line 5: Report.loop"]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_class_members_are_read_by_the_package_criteria_or_benchmark(path):
    outside = frozenset().union(
        *(names_read(other.read_text(encoding="utf-8"))
          for other in [*MODULES, ACCEPTANCE] if other != path),
        *(strings_read(script.read_text(encoding="utf-8"))
          for script in PERFBENCH))
    assert PERFBENCH
    assert unread_members(path.read_text(encoding="utf-8"), outside) == []
