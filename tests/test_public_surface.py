"""The public surface: every name cwgeom exports has a caller in the
package, a demo or the benchmark, not only in its own tests."""

import ast
import types
from pathlib import Path

import cwgeom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cwgeom"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] \
    + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# exported names that need no caller, each with its reason
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


def test_every_exported_name_has_a_caller():
    used = set().union(*(_references(p) for p in SOURCES))
    public = [name for name in cwgeom.__all__
              if not isinstance(getattr(cwgeom, name), types.ModuleType)]
    assert set(KEEP) <= set(public)
    assert sorted(name for name in public if name not in used and name not in KEEP) == []
