"""Every name a module of ``src/dynarace`` imports is used in it, and
importing the CLI stays light.

The unused-import check reads the source with ``ast`` only.  ``__init__.py``
is exempt, since its imports are the package's re-exports, and so are
``__future__`` imports.  A name used in a string annotation counts as used.
"""

import ast
import importlib
import os
import subprocess
import sys
import types

import pytest

import dynarace
from conftest import ROOT

SRC = ROOT / "src" / "dynarace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []


def test_string_annotations_count_as_used():
    tree = ast.parse("from m import A, B\ndef f(x: 'A') -> 'list[B]': pass\n")
    assert set(imported_names(tree)) <= used_names(tree)
    assert "C" not in used_names(ast.parse("import C\n"))


@pytest.mark.parametrize(
    "name",
    ["cli", "clocks", "domains", "engine", "hnf", "model", "netkat", "races", "render"],
)
def test_submodule_attribute_is_the_module(name):
    importlib.import_module(f"dynarace.{name}")
    assert isinstance(getattr(dynarace, name), types.ModuleType)


def test_cli_import_skips_dataclasses_and_inspect():
    # Records are named tuples or ``HashConsed``; neither pulls these in.
    code = "import sys, dynarace.cli; print(sys.modules.keys() & {'dataclasses', 'inspect'})"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "set()\n", "")
