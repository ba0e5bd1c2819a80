"""Every module-level import of the package is read in its module.

No linter ships with the test toolchain, so this walks each source file's
syntax tree: a name bound by a top-level import must be loaded somewhere
in the module or listed in its `__all__`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "poltime").glob("*.py"))


def unread_imports(tree: ast.Module) -> list[str]:
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_unread_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, json as j\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(pi)\n"
    )
    assert unread_imports(tree) == ["os (line 2)", "j (line 2)"]
