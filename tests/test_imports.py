"""Every name that a module of src/missingmass/ or scripts/ imports is used in it.

A stdlib-ast stand-in for a linter's unused-import rule: a name counts as
used when it is read anywhere in the module, annotations included.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "missingmass").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


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
