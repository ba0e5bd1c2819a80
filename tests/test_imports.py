"""Every module-level import of the package is read in its module.

No linter ships with the test toolchain, so this walks each source file's
syntax tree: a name bound by a top-level import must be loaded somewhere
in the module or listed in its `__all__`.
"""

import ast
import subprocess
import sys
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


def test_optics_loads_on_first_use(tmp_path):
    """`import poltime`, `import poltime.cli` and a `poltime tomography` run
    leave `optics` unloaded, and `poltime prepare` loads it; in a fresh
    process the package's names from it import and load it too."""
    config = tmp_path / "config.json"
    config.write_text('{"replicas": 2}')
    run = f"['--config', {str(config)!r}, '--out', {str(tmp_path)!r}, '--no-timestamp']"
    runs = f"""
import sys
import poltime, poltime.cli
assert poltime.cli.main(['tomography', *{run}]) == 0
assert 'poltime.optics' not in sys.modules
assert poltime.cli.main(['prepare', *{run}]) == 0
assert 'poltime.optics' in sys.modules
"""
    names = """
import poltime
from poltime import OpticalPipeline, apply_pipeline, compile_preparation, gate_matrix
import poltime.optics as optics
assert poltime.optics is optics
for name in ('OpticalPipeline', 'apply_pipeline', 'compile_preparation', 'gate_matrix'):
    assert getattr(poltime, name) is getattr(optics, name) is globals()[name]
"""
    for code in (runs, names):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
