"""Source hygiene: no module in gridcast imports a name it never uses, every
name a module exports in __all__ is one it defines or imports, every
function, class and method it defines is referenced somewhere in the repo,
and running the command line loads no scipy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gridcast"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module reads.

    A name counts as used when it is read anywhere in the module or listed
    in __all__; `from __future__ import ...` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_finds_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, sys\nfrom a.b import c, d as e\n__all__ = ['c']\nsys.exit()\n")
    assert unused_imports(src) == ["e (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def stale_exports(source: str) -> list[str]:
    """Names listed in __all__ that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                bound.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
                if isinstance(t, ast.Name) and t.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_export_checker_finds_stale_names():
    src = ("import os\nfrom a import b as c\nX: int = 1\nY, Z = 2, 3\n"
           "def f(): pass\nclass K: pass\n"
           "__all__ = ['os', 'c', 'X', 'Y', 'Z', 'f', 'K', 'gone', 'b']\n")
    assert stale_exports(src) == ["gone", "b"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path):
    assert stale_exports(path.read_text()) == []


ROOT = SRC.parents[1]
REFERENCING = sorted(p for d in ("src", "tests", "demos", "perfbench")
                     for p in (ROOT / d).rglob("*.py"))


def definitions(source: str) -> list[str]:
    """Top-level functions and classes of a module, and their classes' methods.

    Dunder methods are left out: Python calls them, not the code.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def references(source: str) -> set[str]:
    """Every name a module reads, as a name, an attribute, an import or a string.

    Strings count because perfbench's tracer names the methods it wraps.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name.rsplit(".", 1)[-1], node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_definition_checker():
    src = ("class K:\n    def __init__(self): pass\n    def m(self): pass\n"
           "def f(): pass\nasync def g(): pass\nX = 1\n")
    assert definitions(src) == ["K", "K.m", "f", "g"]
    assert references("from a.b import c as d\nimport e.f\nx.y('z')\n") >= {
        "c", "d", "f", "x", "y", "z"}


def test_every_definition_is_referenced():
    used = set().union(*(references(p.read_text()) for p in REFERENCING))
    unused = [f"{path.name}: {name}" for path in ALL_MODULES
              for name in definitions(path.read_text())
              if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


NO_SCIPY_SCRIPT = """
import sys
import gridcast, gridcast.cli
from gridcast.cli import main
from gridcast.model import init_model_params, save_config, tiny_config
from gridcast.serialization import save_params_file

d = sys.argv[1]
save_config(d + "/tiny.cfg", tiny_config())
save_params_file(d + "/p.lmtw", {k: v.values for k, v in
                                 init_model_params(tiny_config(), seed=0).items()})
common = ["--config", d + "/tiny.cfg", "--params", d + "/p.lmtw", "--init", d + "/d.wmd3"]
runs = [["gen-data", "--spec", d + "/tiny.cfg", "--hours", "8", "--out", d + "/d.wmd3"],
        ["forecast"] + common + ["--init-hour", "0", "--dt", "7", "--out", d + "/f.lmtw"],
        ["evaluate", "--forecast", d + "/f.lmtw", "--truth", d + "/d.wmd3",
         "--wavelength-km", "12000", "--out", d + "/e.json"],
        ["verify"]]
assert [main(argv) for argv in runs] == [0] * len(runs)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_command_line_loads_no_scipy(tmp_path):
    """gridcast's only runtime dependency is numpy; scipy is for the tests."""
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
