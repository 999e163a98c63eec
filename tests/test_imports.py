"""Every name that a module of src/missingmass/ or scripts/ imports is used in
it, and every module-level _name of src/missingmass/ is read in the package.

Stdlib-ast stand-ins for a linter's unused-import and dead-code rules: a name
counts as used when it is read anywhere in the module (for _names, anywhere
in the package, as a bare name or an attribute), annotations included.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "missingmass").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_dead_names():
    source = "import os.path\nimport sys\nfrom typing import Optional, Tuple as T\nos.sep\n"
    assert unused_imports(source) == ["Optional", "T", "sys"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def dead_helpers(sources):
    """Module-level _names (not __dunders__) that the sources define and
    none of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_dead_helpers_finds_unread_private_names():
    lib = ("_LIMIT = 3\n_dead, _pair = 1, 2\n__all__ = []\nPUBLIC = 0\n"
           "def _live():\n    return _LIMIT\n"
           "def _gaussian_tail(x):\n    return x\n"
           "class _Box:\n    _inner = 0\n")
    user = "import lib\nlib._live()\nprint(_pair)\nlib._Box = None\n"
    assert dead_helpers([lib, user]) == ["_Box", "_dead", "_gaussian_tail"]


def test_every_private_helper_is_read():
    assert dead_helpers([path.read_text() for path in PACKAGE]) == []
