"""Static checks on the package source, in place of a linter.

Each module of ``gasgeometry`` is parsed with ``ast``; a module-level
import, or a module-level private name (a leading underscore), that the
module itself never loads is dead code left behind by an edit, and so is
a verification suite missing from ``SUITES``, which ``verify`` never runs.
The import tests run in fresh interpreters: importing the command-line entry
point loads no scipy module (``scipy.special`` alone took over half of that
import), and ``verify`` and the six figures run with the test-only
packages blocked, emit no ``ConditioningWarning`` and leave ``numpy.random``,
``numpy.ma``, ``numpy.polynomial`` and ``numpy.fft`` unloaded (``numpy.random``
would dominate the cheapest suite, and together they would add about 8.6 MB
to the resident memory of a figure run).
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gasgeometry

MODULES = sorted(Path(gasgeometry.__file__).parent.glob("*.py"))


def _checked_bindings(tree):
    # (name, line) of every module-level import and private definition
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield (alias.asname or alias.name).split(".")[0], node.lineno
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno


def _loaded(tree):
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # names listed in __all__ are re-exports, which count as uses
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_and_private_names_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = _loaded(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _checked_bindings(tree)
              if name not in loaded]
    assert not unused, f"defined or imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    name = "gasgeometry" if path.stem == "__init__" else f"gasgeometry.{path.stem}"
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"{name}.__all__ lists unbound names: {stale}"


def test_every_suite_is_in_the_table():
    # verify runs SUITES and nothing else, so a suite outside it would never run
    from gasgeometry import verification
    suites = [fn for name, fn in vars(verification).items() if name.startswith("suite_")]
    assert len(suites) == len(verification.SUITES)
    assert [fn.__name__ for fn in suites if fn not in verification.SUITES.values()] == []


def _fresh_modules(code):
    # names in sys.modules after running code in a new interpreter
    src = str(Path(gasgeometry.__file__).parents[1])
    code += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_cli_import_leaves_scipy_unloaded():
    loaded = _fresh_modules("import gasgeometry.cli")
    assert "gasgeometry.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_full_verify_leaves_numpy_random_unloaded(tmp_path):
    # the runtime needs only numpy: the test-only packages are blocked outright;
    # a ConditioningWarning from verify or any figure is raised as an error
    blocked = ("scipy", "mpmath", "hypothesis", "pytest")
    loaded = _fresh_modules(
        "import contextlib, io, os, sys, warnings\n"
        f"sys.modules.update(dict.fromkeys({blocked!r}))\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "from gasgeometry import cli\n"
        "from gasgeometry.errors import ConditioningWarning\n"
        "warnings.simplefilter('error', ConditioningWarning)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify']) == 0\n"
        "    for n in '123456':\n"
        "        assert cli.main(['figure', n, '--out', 'fig' + n + '.csv']) == 0\n")
    assert "gasgeometry.verification" in loaded
    unused = ("numpy.random", "numpy.ma", "numpy.polynomial", "numpy.fft")
    assert [m for m in unused if m in loaded] == []
    for n in range(1, 7):
        rows = (tmp_path / f"fig{n}.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)  # empty error column
