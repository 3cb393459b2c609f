"""Every name a library module imports or keeps private is used in that module.

No linter ships with the project, so this walks the syntax tree with the
standard library's ``ast``.  The package ``__init__`` re-exports names and
is exempt, as is an import statement marked ``# noqa: F401``.  A private
module-level function, class or constant (one leading underscore) must be
read somewhere in its module besides its definition, and so must every
method of a private class, as an attribute.  Every parameter of a
library function is read in its body, so a mode whose branch is gone
cannot keep its parameter, and every defaulted parameter of a library
function is passed by some call in the package or in ``perfbench/``, so a
default that never changes, or that only the tests change, is a
constant.  The public options of ``oracles``, the tests' reference
routes, are exempt.  Every integer check goes through
``model._integer_in``: no module tests ``isinstance(x, int)`` or
``type(x) is int``, which reject numpy integers.  The package exports
exactly the union of its modules' ``__all__``, each bound in its module.
The energy coefficient ``lam`` is an output unit: only the sweep harness
and the command line bind it.  Importing the package loads no part of scipy.
"""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import livefetch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "livefetch"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def dead_private_methods(source: str) -> list:
    """Non-dunder methods of module-level private classes that no attribute read names."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{node.name} (line {node.lineno})"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            and not cls.name.startswith("__")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read]


def dead_private_fields(source: str) -> list:
    """Fields of module-level private dataclasses that no attribute read names."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return [f"{cls.name}.{node.target.id} (line {node.lineno})"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            and not cls.name.startswith("__") and any(map(is_dataclass, cls.decorator_list))
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_dead_private_methods(path):
    source = path.read_text()
    assert dead_private_methods(source) == []
    assert dead_private_fields(source) == []


def test_a_dead_private_method_is_reported():
    source = ("class _Kernel:\n    def __post_init__(self):\n        self.clamped = self.step\n\n"
              "    def step(self):\n        return _Kernel.join()\n\n    @staticmethod\n"
              "    def join():\n        pass\n\n    def clamped(self):\n        pass\n\n\n"
              "class Public:\n    def unused(self):\n        pass\n")
    # ``clamped`` is only stored, never read; a public class's methods are exempt.
    assert dead_private_methods(source) == ["_Kernel.clamped (line 12)"]


def test_a_dead_private_field_is_reported():
    source = ("@dataclass(frozen=True)\nclass _Kernel:\n    s: int\n    level: float\n"
              "    bound: int\n\n    def step(self):\n        return self.s\n\n\n"
              "def run(kernel):\n    return replace(kernel, bound=1).step()\n\n\n"
              "@dataclass\nclass Public:\n    unused: int\n\n\n"
              "class _Plain:\n    note: str\n")
    # ``level`` is never read and ``bound`` only passed by keyword; a public
    # dataclass and a private class that is no dataclass are exempt.
    assert dead_private_fields(source) == ["_Kernel.level (line 4)", "_Kernel.bound (line 5)"]


def unread_parameters(source: str) -> list:
    """Parameters that their function's body never reads (defaults and decorators aside)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        read = {name.id for statement in node.body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}.{argument.arg} (line {argument.lineno})"
                  for argument in (*arguments.posonlyargs, *arguments.args,
                                   arguments.vararg, *arguments.kwonlyargs, arguments.kwarg)
                  if argument is not None and argument.arg not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_an_unread_parameter_is_reported():
    source = ("def f(a, b, *rest, c=1, **extra):\n    return a + c\n\n\n"
              "class A:\n    def g(self, x=None):\n        def h(y, z=x):\n"
              "            return self.y\n        return h\n")
    # ``self`` is read in the nested body and ``x`` in its default.
    assert unread_parameters(source) == ["f.b (line 1)", "f.rest (line 1)", "f.extra (line 1)",
                                         "h.y (line 7)", "h.z (line 7)"]


def unpassed_defaults(sources: list, callers: list) -> list:
    """Defaulted parameters that no call in ``sources`` or ``callers`` passes.

    Each of ``sources`` is a pair ``(text, public)``: every private function
    of ``text`` is checked, and its public ones as well when ``public``;
    ``callers`` only call.  A call passes a parameter by keyword, by
    position (a method's call through an attribute binds its first
    parameter itself) or through a ``*`` or ``**`` argument.  A function is
    matched to its calls by name.
    """
    checked = [(node, public) for text, public in sources for node in ast.walk(ast.parse(text))]
    nodes = [node for node, _ in checked]
    calls = {}
    for node in nodes + [node for text in callers for node in ast.walk(ast.parse(text))]:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    methods = {id(statement) for node in nodes if isinstance(node, ast.ClassDef)
               for statement in node.body
               if not any(getattr(decorator, "id", None) == "staticmethod"
                          for decorator in getattr(statement, "decorator_list", []))}
    found = []
    for node in (node for node, public in checked
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("__")
                 and (public or node.name.startswith("_"))):
        arguments = node.args
        positional = [*arguments.posonlyargs, *arguments.args]
        defaulted = positional[len(positional) - len(arguments.defaults):] + [
            argument for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None]
        for argument in defaulted:
            index = positional.index(argument) if argument in positional else None

            def passes(call):
                bound = int(id(node) in methods and isinstance(call.func, ast.Attribute))
                return (any(keyword.arg in (None, argument.arg) for keyword in call.keywords)
                        or any(isinstance(arg, ast.Starred) for arg in call.args)
                        or index is not None and index < bound + len(call.args))

            if not any(map(passes, calls.get(node.name, []))):
                found.append(f"{node.name}.{argument.arg} (line {argument.lineno})")
    return found


def test_every_default_is_passed():
    # The oracles are the tests' reference routes: the checks set their
    # public options.  The benchmark harness only calls.
    sources = [(path.read_text(), path.name != "oracles.py")
               for path in sorted(PACKAGE.glob("*.py"))]
    callers = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unpassed_defaults(sources, callers) == []


def test_an_unpassed_default_is_reported():
    first = ("def _f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
             "def _g(x=0):\n    return x\n\n\n"
             "class _A:\n    def _m(self, y=0, z=1):\n        return y\n\n"
             "    @staticmethod\n    def _s(u=0):\n        return u\n\n\n"
             "def public(v=0):\n    return v\n")
    second = ("_f(1, 2, d=0)\n_A()._m(5)\n_A._s(1)\nnames = [0]\n_g(*names)\n")
    # ``_g`` is passed through ``*``, ``_m``'s ``y`` by position after the
    # bound ``self``, ``_s`` by position; a public function is exempt.
    assert unpassed_defaults([(first, False), (second, False)], []) == [
        "_f.c (line 1)", "_f.e (line 1)", "_m.z (line 10)"]


def test_an_unpassed_public_default_is_reported():
    # A checked source's public defaults count, an exempt source's do not,
    # and a caller's calls pass them without its own functions being checked.
    library = ("def run(a, *, mode=None, size=1):\n    return a\n\n\n"
               "class Table:\n    def value(self, j=0):\n        return j\n\n"
               "    def __init__(self, x=0):\n        self.x = x\n")
    reference = "def route(a, mode=None):\n    return a\n"
    harness = "def _helper(n=0):\n    return run(n, size=2)\n"
    assert unpassed_defaults([(library, True), (reference, False)], [harness]) == [
        "run.mode (line 1)", "value.j (line 6)"]


def bare_int_checks(source: str) -> list:
    """Lines that test ``isinstance(x, int)`` (``int`` alone or in a tuple) or ``type(x) is [not] int``."""
    def is_int(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "int"

    def is_type_call(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type")

    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            if is_int(kinds) or isinstance(kinds, ast.Tuple) and any(map(is_int, kinds.elts)):
                found.add(node.lineno)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = [node.left, *node.comparators]
            if any(map(is_type_call, sides)) and any(map(is_int, sides)):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_integer_check_is_the_one_rule(path):
    assert bare_int_checks(path.read_text()) == []


def test_a_bare_int_check_is_reported():
    source = ("ok = isinstance(x, bool) or isinstance(x, numbers.Integral)\n"
              "a = isinstance(x, int)\nb = isinstance(x, (float, int))\n"
              "c = type(x) is int\nd = type(x) is not int\ne = int is type(x)\n"
              "f = type(x) is float or x is int\n")
    assert bare_int_checks(source) == [2, 3, 4, 5, 6]


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


def test_importing_the_package_loads_no_scipy():
    # scipy is imported only inside ``model.expect_over_gain``; numpy's random
    # module, which numpy loads lazily, is loaded with the package.
    probe = ("import sys, livefetch, livefetch.cli; "
             "print(sorted(name for name in sys.modules if name.startswith('scipy.'))); "
             "print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, cwd=PACKAGE.parent, check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
