"""Every name a package module imports is used in that module.

No linter ships with the package, so this scans each module's syntax tree:
an imported name that no expression in the module references fails the test.
``__init__.py`` is left out, since its imports are the package's exports.
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


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
