"""Every module of the package uses each name it imports.

No linter runs on the sources, so an import left behind by a deletion is
found here: a name bound by ``import`` or ``from ... import`` that no
expression of the module reads.  ``__init__.py`` only re-exports.
"""

import ast
from pathlib import Path

import kfacets

SOURCES = sorted(p for p in Path(kfacets.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
    unused = {p.name: names for p in SOURCES
              if (names := _unused_imports(ast.parse(p.read_text())))}
    assert len(SOURCES) >= 10 and unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from .serialize import dumps, loads\nimport os.path\n\nloads('')\n")
    assert _unused_imports(tree) == ["line 1: dumps", "line 2: os"]
