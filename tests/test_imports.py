"""Import hygiene: every module-level import of the package is used, and
every private function or method of the package is referenced.

No linter ships with the test dependencies, so these are stdlib `ast` checks.
`__init__.py` is exempt from the import check because its imports are the
package's re-exports, and `from __future__` imports are exempt because they
bind no name.  A private function (one leading underscore, not a dunder) is
referenced when its name appears as a name, an attribute or an import alias
anywhere in the package outside its own definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cycloknot

PACKAGE = sorted(Path(cycloknot.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    assert MODULES
    assert unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == [
        "math (line 1)",
        "sep (line 2)",
    ]


def _private_defs(tree: ast.Module):
    """(qualified name, node) of the module-level private functions and methods."""
    for node in tree.body:
        scope = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for f in scope:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name.startswith("_"):
                if not f.name.startswith("__"):
                    yield prefix + f.name, f


def _references(node: ast.AST, skip: str = "") -> set[str]:
    """Names used under node as a name, an attribute or an import alias, leaving
    out the bodies of the functions called skip."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == skip:
            continue
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
        found |= _references(child, skip)
    return found


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The private functions and methods of the labelled sources that no source
    references outside their own definition."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    unused = []
    for label, tree in trees.items():
        for qualname, node in _private_defs(tree):
            name = node.name
            if not any(name in _references(t, skip=name) for t in trees.values()):
                unused.append(f"{label}:{qualname} (line {node.lineno})")
    return unused


def test_private_functions_are_referenced():
    assert unreferenced_private({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_check_finds_an_unreferenced_private_function():
    source = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class A:\n"
        "    def _unused(self):\n        return self._called()\n"
        "    def _called(self):\n        return _used()\n"
        "    def __repr__(self):\n        return ''\n"
    )
    assert unreferenced_private({"m": source}) == ["m:_recursive (line 3)", "m:A._unused (line 6)"]
