"""The library holds only what it runs: every public module-level
function or class of the package is exported or used by the package,
its scripts or its benchmark.  Tests are not read, so a name only tests
call belongs beside those tests.  No file of the package, its tests or
its scripts imports a name it never reads, and the package does not
import fractions or dataclasses; its cell action (cells, oracle) imports
no diagrams.  Its values survive pickle and copy."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import brauerblocks
from brauerblocks import (BrauerDiagram, Box, HomQuery, Partition, SkewShape,
                          block_partition)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brauerblocks"
USERS = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
         for path in sorted(folder.glob("*.py"))
         if not path.name.startswith("test_")]


def used_names(tree: ast.Module) -> set[str]:
    """Names read as a Name, an Attribute or an import anywhere in tree,
    except inside the top-level definition of that same name (recursion
    is not a use)."""
    found: set[str] = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_public_name_is_used():
    used: set[str] = set()
    for path in USERS:
        used |= used_names(ast.parse(path.read_text(), str(path)))
    exported = set(brauerblocks.__all__)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and stmt.name not in exported | used):
                unused.append(f"{path.stem}.{stmt.name}")
    assert not unused, f"public names nothing outside tests uses: {unused}"


def test_every_public_member_is_used():
    """The same rule for the public methods and properties of the
    package's classes: each is read as an attribute somewhere in the
    package, its scripts or its benchmark."""
    read: set[str] = set()
    for path in USERS:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            unused += [f"{path.stem}.{cls.name}.{stmt.name}" for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)
                       and not stmt.name.startswith("_")
                       and stmt.name not in read]
    assert not unused, f"public members nothing outside tests reads: {unused}"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import in tree binds and nothing in tree reads; a name
    listed in __all__ counts as read, and __future__ imports are exempt."""
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_no_unused_imports():
    unused = []
    for folder in (PACKAGE, ROOT / "tests", ROOT / "scripts"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            unused += [f"{path.parent.name}/{path.name}: {name}"
                       for name in unused_imports(tree)]
    assert not unused, f"imported and never read: {unused}"


def test_package_imports_no_fractions():
    """The runtime is integer-only: rational coefficients live in the
    test references."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]  # None for "from . import"
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] == "fractions"]
    assert not found, f"fractions imported: {found}"


def test_action_layer_imports_no_diagrams():
    """cells and oracle move vectors in closed form; the strand walk and
    the diagrams it walks live in the test references."""
    found = []
    for name in ("cells.py", "oracle.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""  # None for "from . import"
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{name}: {imported}" for imported in names
                      if "diagrams" in imported.split(".")]
    assert not found, f"diagrams imported: {found}"


def test_package_does_without_dataclasses():
    # pytest itself loads dataclasses, so the import is watched in a
    # fresh interpreter
    code = "import sys, brauerblocks; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_values_pickle_and_copy():
    values = [Partition((2, 1)), SkewShape([Box(1, 1)]),
              BrauerDiagram(2, 2, [(1, -1), (2, -2)]),
              HomQuery(4, 1, Partition((2, 2)), Partition()),
              block_partition(4, 1)]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value, value
