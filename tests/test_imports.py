"""Every name that a module of src/missingmass/ or scripts/ imports is used in
it, every module-level _name of src/missingmass/ is read in the package, and
every subcommand runs without the development-only dependencies.

Stdlib-ast stand-ins for a linter's unused-import and dead-code rules: a name
counts as used when it is read anywhere in the module (for _names, anywhere
in the package, as a bare name or an attribute), annotations included.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


#: Installed by the dev extra only; the package must not import them.
DEV_ONLY = ("scipy", "mpmath", "hypothesis")

#: One command per subcommand, and one per simulate task.
COMMANDS = [
    "estimate --input {tokens} --alpha 1 --eps 0.1",
    "fig1 --outdir {outdir}",
    "bounds --family poly:2 --g power:1 --n 50 --eps-grid 0.1,0.2",
    "ustar --g entropy:64 --n 100 --r 2",
    "simulate --task risk --g power:1 --dist uniform:50 --n-list 20 --trials 100",
    "simulate --task tail --g power:1 --dist zipf:50:1 --n-list 20 --trials 1000 "
    "--eps-grid 0.1",
    "simulate --task dirichlet --alpha 1 --n-list 10 --trials 100",
]


def test_every_subcommand_runs_without_dev_dependencies(tmp_path):
    # a None entry in sys.modules makes any import of that name fail
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a\nb\na\nc\na\nb\nd\ne\n")
    argvs = [c.format(tokens=tokens, outdir=tmp_path).split() for c in COMMANDS]
    script = (
        "import sys\n"
        f"for name in {DEV_ONLY!r}:\n"
        "    sys.modules[name] = None\n"
        "from missingmass import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print('exit codes:', codes, file=sys.stderr)\n"
        "sys.exit(any(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
