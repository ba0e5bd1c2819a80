"""Every module-level import of the package is read in its module, and
every public name it defines is read by the program.

No linter ships with the test toolchain, so this walks each source file's
syntax tree: a name bound by a top-level import of the package, `scripts/`,
`perfbench/` or `tests/` must be loaded somewhere in the module or listed
in its `__all__`, and a public top-level function or class, or a public
method, must be read somewhere in the package, `scripts/` or `perfbench/`.
The package's `__init__.py` re-exports names without reading them, so it
does not count as a reader.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "poltime").glob("*.py"))
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
PERFBENCH = sorted(ROOT.glob("perfbench/*.py"))
PROGRAM = [*SOURCES, *SCRIPTS, *PERFBENCH]
# Public names no program reads, each kept for the reason given.
UNREAD_PUBLIC = {
    "hilbert.inner_product": "tests/test_acceptance.py checks states with it",
    "hilbert.to_density": "tests/test_acceptance.py checks states with it",
    "hilbert.partial_trace_time": "tests/test_acceptance.py checks states with it",
    "optics.OpticalPipeline.to_json": "tests/test_compile_reference.py pins 284 plans by it",
    "hom.envelope_overlap": "tests check bin overlaps with it (ROADMAP item 7)",
    "hom.shifted_ancilla_vector": "tests pin the scan model by it (ROADMAP items 1, 7)",
    "optics.gate_matrix": "tests/test_acceptance.py checks the crystal's logical action by it",
    "optics.apply_pipeline": "tests apply plans with it (ROADMAP item 16)",
}


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


@pytest.mark.parametrize(
    "path", [*PROGRAM, *sorted(ROOT.glob("tests/*.py"))], ids=lambda path: path.name
)
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


def public_definitions(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of the module's public top-level functions and
    classes and of its classes' public methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def names_read(tree: ast.Module) -> set[str]:
    """Names the tree loads, attributes it loads, and identifier strings,
    which covers `__all__` and tables of names such as perfbench's LAYERS."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def readers(trees: dict[Path, ast.Module]) -> list[ast.Module]:
    """The trees that count as reading a name: all but a package's
    `__init__.py`, whose imports, `__all__` and lazy exports only re-export."""
    return [tree for path, tree in trees.items() if path.name != "__init__.py"]


def unread_public(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    read = set().union(*map(names_read, readers))
    return [
        qualified
        for module, tree in modules.items()
        for qualified, name in public_definitions(module, tree)
        if name not in read
    ]


def test_every_public_name_has_a_program_reader():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    modules = {path.stem: trees[path] for path in SOURCES}
    assert sorted(unread_public(modules, readers(trees))) == sorted(UNREAD_PUBLIC)


def test_unread_public_names_are_found():
    module = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "def listed(): pass\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "    def idle(self): pass\n"
        "    def __len__(self): return 0\n"
        "class Gone: pass\n"
        "__all__ = ['listed']\n"
    )
    reader = ast.parse("used()\nk = m.Kept()\nk.method()\nunused = 1\nk.idle = 2\n")
    assert unread_public({"m": module}, [module, reader]) == [
        "m.unused", "m.Kept.idle", "m.Gone"
    ]
    package = ast.parse("from .m import used, unused\n__all__ = ['unused']\n")
    trees = {Path("pkg/__init__.py"): package, Path("pkg/m.py"): module, Path("r.py"): reader}
    assert unread_public({"m": module}, readers(trees)) == ["m.unused", "m.Kept.idle", "m.Gone"]


# Each input rule has one home, the one function that may handle its error:
# an integer past the float range, and a mixed state where a pure one fits.
RULE_HOMES = {
    ("except OverflowError", "hilbert._check_real"),
    ("except OverflowError", "experiment._check_seed"),
    ("raise TypeError naming PhotonState", "hilbert._check_pure"),
}


def rule_sites(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(rule, qualified enclosing function) of each `except` clause that
    names OverflowError and each `raise TypeError(...)` whose message names
    PhotonState."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if any(isinstance(n, ast.Name) and n.id == "OverflowError"
                       for n in ast.walk(child.type)):
                    found.append(("except OverflowError", where))
            elif (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and isinstance(child.exc.func, ast.Name)
                and child.exc.func.id == "TypeError"
                and any(isinstance(n, ast.Constant) and "PhotonState" in str(n.value)
                        for n in ast.walk(child.exc))
            ):
                found.append(("raise TypeError naming PhotonState", where))
            walk(child, where)

    walk(tree, module)
    return found


def test_each_input_rule_has_one_home():
    """An OverflowError handled, or a pure-state TypeError raised, outside
    its home is a second copy of a rule that `hilbert._check_real`,
    `experiment._check_seed` or `hilbert._check_pure` already keeps."""
    sites = [
        site for path in SOURCES for site in rule_sites(path.stem, ast.parse(path.read_text()))
    ]
    assert sorted(set(sites)) == sorted(RULE_HOMES)


def test_rule_sites_are_found():
    tree = ast.parse(
        "def read(x):\n"
        "    try:\n"
        "        return float(x)\n"
        "    except (TypeError, OverflowError):\n"
        "        raise TypeError(f'read expects a PhotonState, got {x}')\n"
        "class Plate:\n"
        "    def check(self):\n"
        "        try:\n"
        "            raise TypeError('not a number')\n"
        "        except OverflowError:\n"
        "            raise ValueError('PhotonState')\n"
    )
    assert rule_sites("m", tree) == [
        ("except OverflowError", "m.read"),
        ("raise TypeError naming PhotonState", "m.read"),
        ("except OverflowError", "m.Plate.check"),
    ]


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
