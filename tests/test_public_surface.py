"""Library code only where a caller reads it: every name cwgeom exports,
and every module-level function and class defined in the package, has a
caller in the package, a demo or the benchmark, not only in the tests;
and every oracle the tests keep in oracles.py is imported by a test."""

import ast
import types
from pathlib import Path

import cwgeom

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "cwgeom"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] \
    + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# names that need no caller, each with its reason
KEEP = {
    "centraliser_projection_demo": "the numerical content of the projection "
                                   "argument behind the paper's third claim",
}


def _references(path):
    """Names read through a Name or Attribute node of the file, outside the
    function or class definition that binds the same name."""
    found = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def _definitions(path):
    """Names of the module-level functions and classes of the file."""
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_exported_name_has_a_caller():
    used = set().union(*(_references(p) for p in SOURCES))
    public = [name for name in cwgeom.__all__
              if not isinstance(getattr(cwgeom, name), types.ModuleType)]
    assert set(KEEP) <= set(public)
    assert sorted(name for name in public if name not in used and name not in KEEP) == []


def test_every_package_definition_has_a_caller():
    used = set().union(*(_references(p) for p in SOURCES))
    defined = set().union(*(_definitions(p) for p in PACKAGE.glob("*.py")))
    assert set(KEEP) <= defined
    assert sorted(defined - used - set(KEEP)) == []


def test_every_oracle_is_imported_by_a_test():
    imported = {alias.name for path in TESTS.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert sorted(_definitions(TESTS / "oracles.py") - imported) == []
