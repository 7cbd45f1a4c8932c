"""Every module of the package, the tests and the scripts uses each name
it imports; every public function of the package has a caller in the
package; and every parameter default is both taken and overridden by calls
in the package.

No linter runs on the sources, so an import left behind by a deletion is
found here: a name bound by ``import`` or ``from ... import`` that no
expression of the module reads.  ``__init__.py`` only re-exports.  A public
function that only the tests reach is a second entry point beside the one
the program runs.  A default that no call overrides is a setting only the
tests reach; one that every call overrides is never used.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import kfacets

SOURCES = sorted(p for p in Path(kfacets.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# the tests and scripts, but not perfbench/, which measures the package from outside
HELPERS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = {f"{p.parent.name}/{p.name}": names for p in SOURCES + HELPERS
              if (names := _unused_imports(ast.parse(p.read_text())))}
    assert len(SOURCES) >= 10 and len(HELPERS) >= 10 and unused == {}


def test_no_module_imports_dataclasses():
    # the records are NamedTuples and plain classes: importing dataclasses
    # loads inspect, and each frozen dataclass is built at every start-up
    imported = [(p.stem, node.lineno) for p in SOURCES + [Path(kfacets.__file__)]
                for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert imported == []


def test_cli_starts_without_dataclasses_or_inspect():
    # a fresh interpreter, as every kfacets run and benchmark worker starts
    code = "import sys, kfacets.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(kfacets.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_an_unused_import_is_found():
    tree = ast.parse("from .serialize import dumps, loads\nimport os.path\n\nloads('')\n")
    assert _unused_imports(tree) == ["line 1: dumps", "line 2: os"]


# public functions that nothing in the package reaches, each kept for its reason
UNREFERENCED = {
    "facelab.neighborliness_degree": "a documented API (the README's neighborliness "
                                     "degrees), and the tests' hull-side check of the "
                                     "constructive verifiers",
    "serialize.certificate_from_json": "the reader a `kfacets check` command will use "
                                       "(ROADMAP item 8)",
}


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """"module.function" for each public module-level function, and
    "module.Class.method" for each public method of a public class, whose
    name no expression in trees reads outside its own definition, called
    or named (a reference matches by the bare name)."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [(f"{module}.{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]

    def read(root: ast.AST) -> Counter:
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(root) if isinstance(node, (ast.Name, ast.Attribute)))

    total = sum(map(read, trees.values()), Counter())
    return sorted(name for name, fn in defined if total[fn.name] == read(fn)[fn.name])


def test_every_public_function_is_reached_from_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _unreferenced(trees) == sorted(UNREFERENCED)


def test_an_unreferenced_function_is_found():
    defining = ast.parse("def used():\n    pass\n\n"
                         "def recursive(k):\n    return recursive(k - 1)\n\n"
                         "def named():\n    pass\n\n"
                         "def _private():\n    pass\n\n"
                         "class K:\n    def m(self):\n        pass\n\n"
                         "    def n(self):\n        return self.m()\n\n"
                         "    def __init__(self):\n        pass\n\n"
                         "class _Hidden:\n    def x(self):\n        pass\n\n"
                         "TABLE = {'named': named}\n")
    calling = ast.parse("def main():\n    return used()\n")
    assert _unreferenced({"m": defining, "o": calling}) == ["m.K.n", "m.recursive", "o.main"]


def _defaults(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, call position or None if keyword-only) of fn's defaulted
    parameters, skip being 1 for a method's receiver."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _sets(call: ast.Call, relayed: set[str], param: str, position: int | None) -> bool:
    """Whether call passes param, at position or by keyword, as anything but
    the caller's own defaulted parameter of the same name (relayed)."""
    values = [a for i, a in enumerate(call.args) if i == position]
    values += [kw.value for kw in call.keywords if kw.arg == param]
    return any(not (isinstance(v, ast.Name) and v.id == param and param in relayed)
               for v in values)


def _default_misuse(trees: dict[str, ast.Module]) -> list[str]:
    """"module.function(param): why" for each defaulted parameter that no
    call in trees sets, or that every call sets.  A call matches a function
    by its bare name, and a class's ``__init__`` by calls to the class.
    Relaying the caller's own defaulted parameter of that name sets
    nothing: the value is still a default."""
    calls: dict[str, list[tuple[ast.Call, set[str]]]] = {}
    functions = []

    def visit(node, module, relayed, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = cls if cls and child.name == "__init__" else child.name
                params = _defaults(child, 1 if cls else 0)
                functions.append((module, name, params))
                visit(child, module, {p for p, _ in params}, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, relayed, child.name)
            else:
                if isinstance(child, ast.Call):
                    callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                    calls.setdefault(callee, []).append((child, relayed))
                visit(child, module, relayed, cls)

    for module, tree in trees.items():
        visit(tree, module, set(), None)
    found = []
    for module, name, params in functions:
        for param, position in params:
            setting = [_sets(call, relayed, param, position)
                       for call, relayed in calls.get(name, ())]
            if not any(setting):
                found.append(f"{module}.{name}({param}): no call sets it")
            elif all(setting):
                found.append(f"{module}.{name}({param}): every call sets it")
    return found


def test_every_default_is_both_taken_and_overridden():
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    # a console entry point reads sys.argv when it is called with no arguments
    assert _default_misuse(trees) == ["cli.main(argv): no call sets it"]


def test_a_misused_default_is_found():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    g(a, c=c, d=d)\n\n"
                     "def g(a, c=0, d=0):\n    pass\n\n"
                     "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
                     "f(0, 5, d=4)\nf(1)\nK(1)\ng(0, d=1)\n")
    assert _default_misuse({"m": tree}) == [
        "m.f(c): no call sets it", "m.g(c): no call sets it",
        "m.K(x): every call sets it", "m.K(y): no call sets it"]
