"""Library code only where a caller reads it: every name cwgeom exports,
every module-level function and class defined in the package, and every
member of such a class, has a caller in the package, a demo or the
benchmark, not only in the tests; and every oracle the tests keep in
oracles.py is imported by a test."""

import ast
import importlib
import re
import types
from pathlib import Path

import cwgeom

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "cwgeom"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] \
    + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

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
    assert sorted(name for name in public if name not in used) == []


def test_point_is_named_only_where_the_benchmark_reads_it():
    """Maps take and return (..., n+2) arrays.  Point stays only for the
    benchmark's reads (perfbench/reports.py): the class in core, the orbit
    report's points in dynamics, their JSON form in serialize."""
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if re.search(r"\bPoint\b", path.read_text(encoding="utf-8")))
    assert naming == ["core.py", "dynamics.py", "serialize.py"]
    assert "Point" not in cwgeom.__all__


def test_every_package_definition_has_a_caller():
    used = set().union(*(_references(p) for p in SOURCES))
    defined = set().union(*(_definitions(p) for p in PACKAGE.glob("*.py")))
    assert sorted(defined - used) == []


def _members(path):
    """(class, member) for each non-dunder method, property and class-level
    field, dataclass fields included, of the module-level classes of the file."""
    found = set()
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id] if isinstance(node.target, ast.Name) else []
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            found |= {(cls.name, name) for name in names
                      if not (name.startswith("__") and name.endswith("__"))}
    return found


def _member_uses(path):
    """Names read as an attribute, outside the method that defines the same
    name, or passed as a keyword argument, in the file."""
    found = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defining = defining | {node.name}
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr not in defining):
            found.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def _overrides(path, cls, name):
    """Whether the member overrides one of a base class, which the base reads."""
    klass = getattr(importlib.import_module(f"cwgeom.{path.stem}"), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def test_every_class_member_has_a_caller():
    """A method, property or field that only tests read or set is test
    code; positional construction alone does not count as a use."""
    used = set().union(*(_member_uses(p) for p in SOURCES))
    unused = [f"{cls}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in sorted(_members(path))
              if name not in used and not _overrides(path, cls, name)]
    assert unused == []


def test_every_oracle_is_imported_by_a_test():
    imported = {alias.name for path in TESTS.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert sorted(_definitions(TESTS / "oracles.py") - imported) == []
