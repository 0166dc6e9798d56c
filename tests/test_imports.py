"""Every name a module of ``src/dynarace`` imports is used in it, every
name it defines is used by the program, the package has one error type
plus the two positioned syntax errors, importing the CLI stays light, and
the README's Python example runs.

The source checks read the source with ``ast`` only and cover every
module, ``__init__.py`` included, so the package re-exports nothing and each
name has one import path.  ``__future__`` imports are exempt.  A name used in
a string annotation counts as used.
"""

import ast
import builtins
import doctest
import importlib
import os
import subprocess
import sys
import types

import pytest

import dynarace
from conftest import ROOT

SRC = ROOT / "src" / "dynarace"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))


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


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(tree):
    """``(qualified name, name)`` of each module-level function, class and
    constant, and of each method or property that is not a dunder."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Name) and not is_dunder(target.id):
                yield target.id, target.id
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def read_names(tree):
    """The names a module reads, the attributes it reads and the names it
    imports from other modules; a definition itself reads nothing."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    for annotation in annotations(tree):
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                read |= read_names(ast.parse(n.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []


def test_string_annotations_count_as_used():
    tree = ast.parse("from m import A, B\ndef f(x: 'A') -> 'list[B]': pass\n")
    assert set(imported_names(tree)) <= used_names(tree)
    assert "C" not in used_names(ast.parse("import C\n"))


def test_every_definition_is_used_by_the_program():
    # A name that only tests read belongs in the tests; the benchmark's
    # reads are uses.
    read = set()
    for path in MODULES + PERFBENCH:
        read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}: {qualified}"
        for path in MODULES
        for qualified, name in defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert unused == []


def test_definition_check_reads_methods_and_string_annotations():
    tree = ast.parse(
        "X = 1\nclass C:\n    def m(self): pass\n    def __len__(self): return 0\n"
        "def f(c: 'C') -> int: return X\n"
    )
    assert list(defined_names(tree)) == [("X", "X"), ("C", "C"), ("C.m", "m"), ("f", "f")]
    assert {"X", "C"} <= read_names(tree)
    assert not {"m", "f"} & read_names(tree)


def exception_classes(trees):
    """The names of the classes in ``trees`` that subclass ``Exception``,
    directly or through each other; a base is read by its last name, and a
    computed base such as ``namedtuple(...)`` is taken to be no exception."""
    bases = {
        node.name: {
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        }
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = set()
    while True:
        more = {
            name
            for name, names in bases.items()
            if any(
                b in found
                or isinstance(getattr(builtins, b, None), type)
                and issubclass(getattr(builtins, b), Exception)
                for b in names
            )
        }
        if more == found:
            return found
        found = more


def test_one_error_type():
    # Every reported error is a ``DynaraceError`` and its message; only the
    # two syntax errors add something, their position.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    assert exception_classes(trees) == {
        "DynaraceError", "ModelSyntaxError", "PolicySyntaxError"
    }


def print_sites(tree, module):
    """``(module, function)`` of each ``print(...)`` call in ``tree``: the
    outermost function around the call, ``None`` at module level."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "print"
            ):
                sites.append((module, owner))
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return sites


def test_one_printer():
    # Every failure is raised as a ``DynaraceError``, so ``cli.run`` is the
    # one place that reports, and the only ``print`` in the package.
    sites = [
        site
        for path in MODULES
        for site in print_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert sites == [("cli", "run")]


def test_print_check_names_the_outermost_function():
    tree = ast.parse(
        "print(0)\ndef f():\n    def g():\n        print(1)\n"
        "class C:\n    def m(self):\n        return print(2)\n"
    )
    assert print_sites(tree, "x") == [("x", None), ("x", "f"), ("x", "m")]


def test_exception_check_follows_bases():
    tree = ast.parse(
        "class E(Exception): pass\nclass F(E): pass\nclass G(m.ValueError): pass\n"
        "class H(F, object): pass\nclass C: pass\nclass D(C, dict): pass\n"
        "class N(namedtuple('N', 'a')): pass\n"
    )
    assert exception_classes([tree]) == {"E", "F", "G", "H"}


@pytest.mark.parametrize("name", [p.stem for p in MODULES if p.stem != "__init__"])
def test_submodule_attribute_is_the_module(name):
    importlib.import_module(f"dynarace.{name}")
    assert isinstance(getattr(dynarace, name), types.ModuleType)


def fresh_import(code):
    """``(exit code, stdout, stderr)`` of ``code`` in a new ``python -S``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_skips_dataclasses_and_inspect():
    # Records are named tuples or ``HashConsed`` subclasses, which a parse
    # interns in a plain dict; neither pulls these in.
    code = "import sys, dynarace.cli; print(sys.modules.keys() & {'dataclasses', 'inspect'})"
    assert fresh_import(code) == (0, "set()\n", "")


def test_cli_import_skips_argparse_and_gettext():
    # Only ``main`` parses arguments, so only ``main`` loads ``argparse``.
    code = "import sys, dynarace.cli; print(sys.modules.keys() & {'argparse', 'gettext'})"
    assert fresh_import(code) == (0, "set()\n", "")


def test_package_import_loads_no_submodule():
    # ``__init__.py`` imports nothing, so ``import dynarace`` stays empty.
    code = "import sys, dynarace; print(sorted(m for m in sys.modules if m.startswith('dynarace.')))"
    assert fresh_import(code) == (0, "[]\n", "")


def test_readme_python_example_runs(monkeypatch):
    # The README's ``>>>`` example documents the tree's data; it runs from
    # the repository root, as it says.
    monkeypatch.chdir(ROOT)
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
