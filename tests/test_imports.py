"""Every name a library module imports or keeps private is used in that module.

No linter ships with the project, so this walks the syntax tree with the
standard library's ``ast``.  The package ``__init__`` re-exports names and
is exempt, as is an import statement marked ``# noqa: F401``.  A private
module-level function, class or constant (one leading underscore) must be
read somewhere in its module besides its definition.  The package exports
exactly the union of its modules' ``__all__``, each bound in its module.
The energy coefficient ``lam`` is an output unit: only the sweep harness
and the command line bind it.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import livefetch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "livefetch"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def dead_private_names(source: str) -> list:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def lam_bindings(source: str) -> list:
    """Lines that bind ``lam`` as a parameter, keyword, class field or attribute."""
    tree = ast.parse(source)
    fields = [stmt for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))]
    found = {stmt.lineno for stmt in fields
             for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
             if isinstance(target, ast.Name) and target.id == "lam"}
    found |= {node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "lam"
              or isinstance(node, ast.Attribute) and node.attr == "lam"}
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in MODULES if path.stem not in ("sweep", "cli")],
                         ids=lambda path: path.name)
def test_only_the_harness_binds_lam(path):
    assert lam_bindings(path.read_text()) == []


def test_a_lam_binding_is_reported():
    source = ("class A:\n    lam: float = 1.0\n\n\ndef f(x, lam=1.0):\n    return x.lam\n\n\n"
              "g(lam=2.0)\nlam = 3.0\n# lam\n")
    assert lam_bindings(source) == [2, 5, 6, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


def test_a_dead_private_name_is_reported():
    source = ("__all__ = []\n_USED = 1\n_DEAD = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
              "class _Gone:\n    pass\n\n\ndef public():\n    return _helper()\n")
    assert dead_private_names(source) == ["_DEAD (line 3)", "_Gone (line 10)"]


def public_modules() -> list:
    modules = [importlib.import_module(f"livefetch.{path.stem}") for path in MODULES]
    return [module for module in modules if hasattr(module, "__all__")]


def test_package_exports_the_union_of_module_exports():
    exported = {name for name, value in vars(livefetch).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in public_modules() for name in module.__all__}


@pytest.mark.parametrize("module", public_modules(), ids=lambda module: module.__name__)
def test_every_export_is_bound_in_its_module(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
