"""Import hygiene: every module-level import of the package is used.

No linter ships with the test dependencies, so this is a stdlib `ast` check.
`__init__.py` is exempt because its imports are the package's re-exports, and
`from __future__` imports are exempt because they bind no name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cycloknot

MODULES = sorted(p for p in Path(cycloknot.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
