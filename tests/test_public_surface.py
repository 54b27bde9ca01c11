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

import numpy as np
import pytest

import cwgeom

from test_group_law import counter

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


# the names cwgeom exported when it imported every submodule itself,
# which the lazy package keeps: the submodules, then the library's names
EXPORTS = sorted([
    "core", "curvature", "dynamics", "errors", "flat", "group", "quotients",
    "BetaSolution", "CWError", "Classification", "CurvatureTensor4", "ExampleReport",
    "FixedPointReport", "Homothety", "NormalFormResult", "SmoothMap", "SymmetricProfile",
    "apply", "beta_eval", "christoffel_at", "classify", "compose", "cotton", "fixed_point",
    "flatness_blowup_demo", "homothety_factor_check", "identity", "imaginary_local_map",
    "inessential_rescaling", "inverse", "is_essential", "metric_at", "minkowski_map",
    "minkowski_metric", "normal_form", "orbit_obstruction_sequence", "pd_necessary_report",
    "ricci", "riemann", "scalar", "schouten", "self_adjacency", "symplectic_form",
    "verify_example", "weyl"])


class TestLazyPackage:
    """`import cwgeom` loads no submodule, yet every exported name reads
    as before."""

    def test_the_export_list_is_kept(self):
        assert sorted(cwgeom.__all__) == EXPORTS

    def test_each_name_is_the_object_of_its_module(self):
        assert cwgeom.compose is cwgeom.group.compose
        for name in cwgeom.__all__:
            value = getattr(cwgeom, name)
            if isinstance(value, types.ModuleType):
                assert value is importlib.import_module(f"cwgeom.{name}")
            else:
                assert value.__module__.startswith("cwgeom."), name
                assert getattr(importlib.import_module(value.__module__), name) is value

    def test_star_import_binds_each_name(self):
        namespace = {}
        exec("from cwgeom import *", namespace)
        assert [name for name in EXPORTS if namespace.get(name) is not getattr(cwgeom, name)] \
            == []

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cwgeom.no_such_name
        assert not hasattr(cwgeom, "no_such_name")
        assert set(EXPORTS) <= set(dir(cwgeom))


def test_point_is_named_only_where_the_benchmark_reads_it():
    """Maps take and return (..., n+2) arrays.  Point stays only for the
    benchmark's reads (perfbench/reports.py): the class in core and the
    orbit report's points in dynamics, built from its sequence array when
    read; serialize writes that array."""
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if re.search(r"\bPoint\b", path.read_text(encoding="utf-8")))
    assert naming == ["core.py", "dynamics.py"]
    assert "Point" not in cwgeom.__all__


def _scopes(found):
    """module.Class.function of each node of the package for which found(node) holds."""
    scopes = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if found(node):
            scopes.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return scopes


def _callers(attr):
    """module.Class.function of each call `something.attr(...)` in the package."""
    return _scopes(lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute) and node.func.attr == attr)


def _readers(name):
    """module.Class.function of each read of the bare name in the package."""
    return _scopes(lambda node: isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id == name)


def _naming(word):
    """The package files whose text contains word."""
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if word in path.read_text(encoding="utf-8")]


def _with_attribute(attr):
    """The package files that read or set an attribute named attr."""
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if any(isinstance(node, ast.Attribute) and node.attr == attr
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]


def test_A_is_projected_in_one_function():
    """A is made orthogonal once, where an element enters: np.linalg.svd is
    called in the gate SymmetricProfile.require_centraliser and otherwise
    only by fixed_point, on its per-eigenspace blocks of e^s A - I, and
    nothing re-projects the A of a product (no `renormalized`)."""
    assert _callers("svd") == ["core.SymmetricProfile.require_centraliser",
                               "dynamics.fixed_point"]
    assert _naming("renormalized") == []


def test_the_spectrum_is_decided_in_one_function():
    """S's eigenvalues are grouped once, where a profile is built:
    np.linalg.eigh is called in SymmetricProfile.__init__ only, classify and
    in_centraliser read the grouped eigenvalues and not S, and no second
    zero threshold is kept (no `zero_threshold`).  The per-column
    eigenvalues are the one spectral representation: no `SpectralBlock`, no
    `spectrum` attribute, and the resonance gate of the conjugation solve
    dynamics._conjugation_beta is the one caller of np.linalg.eigvals."""
    assert _callers("eigh") == ["core.SymmetricProfile.__init__"]
    assert _callers("eigvals") == ["dynamics._conjugation_beta"]
    assert _naming("SpectralBlock") == []
    assert _with_attribute("spectrum") == []
    readers = {node.name: {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)}
               for node in ast.walk(ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("classify", "in_centraliser")}
    assert sorted(readers) == ["classify", "in_centraliser"]
    assert [name for name, attrs in readers.items() if "S" in attrs] == []
    assert _naming("zero_threshold") == []


def test_a_region_is_checked_where_it_is_read():
    """A region is an array that self_adjacency checks, and example 4's
    rescale checks are part of its one report: no package file names
    BoxRegion or a separate rescale report."""
    assert _naming("BoxRegion") == [] and _naming("verify_inessential_rescale_U") == []


def test_box_region_is_not_exported():
    assert "BoxRegion" not in cwgeom.__all__


def test_json_numbers_have_one_reader():
    """serialize reads JSON numbers in one function, the one reader of _is_number."""
    assert _readers("_is_number") == ["serialize.load_reals"]


def test_each_failure_rule_of_the_group_law_is_stated_once():
    """The zero rule and the row rule live in one function each: np.isinf
    is called only in group._scaled, a group-law failure is caught only in
    group._row_by_row, and no package file names the per-term helper
    _keep_zeros that each operation once called."""
    def catches_group_law_failures(node):
        caught = node.type.elts if isinstance(getattr(node, "type", None), ast.Tuple) else []
        return isinstance(node, ast.ExceptHandler) and {"PreconditionError",
                                                        "OverflowingValueError"} <= {
            getattr(name, "id", None) for name in caught}

    assert _callers("isinf") == ["group._scaled"]
    assert [scope.split(".")[:2] for scope in _scopes(catches_group_law_failures)] \
        == [["group", "_row_by_row"]]
    assert _naming("_keep_zeros") == []


def test_profiles_are_compared_only_where_inputs_are_combined():
    """An input's profile is read from one place.  `.profile` values are
    compared only where elements or solutions given separately meet: the
    product, the constructor's beta, _stack (so every batch, the PD
    sweep's letters among them), the symplectic form and the orbit.
    The conjugation solve dynamics._conjugation_beta takes its profile from
    beta, not as a parameter."""
    def compares_profiles(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr == "profile"
            for side in (node.left, *node.comparators))

    assert sorted(set(_scopes(compares_profiles))) == [
        "core.symplectic_form", "dynamics.orbit_obstruction_sequence",
        "group.Homothety.__post_init__", "group._stack", "group.compose"]
    assert "dynamics._conjugation_beta" not in _scopes(
        lambda node: isinstance(node, ast.arg) and node.arg == "profile")


def test_no_result_caches_a_derived_array():
    """A result keeps only what it was built from: no package module names
    cached_property, so a derived array such as a curvature tensor's dense
    components is built on each read and not pinned to the result."""
    def names_cached_property(node):
        return (isinstance(node, ast.Name) and node.id == "cached_property"
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                or isinstance(node, ast.alias) and node.name == "cached_property")

    assert _scopes(names_cached_property) == []


def test_fixed_point_judges_existence_once():
    """An isometry's fixed point is one residual judged against
    FIXED_POINT_TOL: the tolerance is read once, in dynamics.fixed_point."""
    assert _readers("FIXED_POINT_TOL") == ["dynamics.fixed_point"]


def test_the_conjugation_solve_is_private():
    """normal_form is the one caller of the conjugation solve, so no package
    file defines or exports solve_conjugation_beta."""
    assert _naming("solve_conjugation_beta") == []
    assert "solve_conjugation_beta" not in cwgeom.__all__


def test_the_conjugation_is_solved_per_eigenspace():
    """The conjugation solve reads the blocks of Q^T A Q on the eigenspaces
    of S, which its resonance gate reads too: no package file names the
    dense 2n x 2n matrix _conjugation_matrix."""
    assert _naming("_conjugation_matrix") == []


def test_beta_enters_the_eigenbasis_in_one_function():
    """core.beta_in_eigenbasis is the one reader of beta in the eigenbasis
    of S: the one function that reads both beta's data and the
    eigenvectors, the one caller of SymmetricProfile.flow and the one
    reader of the phase limits past the tables that build them.  No
    package file names the separate phase gate require_phase, and
    fixed_point reads beta through the reader, not through beta_eval."""
    def reads(attrs):
        return lambda node: (isinstance(node, ast.Attribute) and node.attr in attrs
                             and isinstance(node.ctx, ast.Load))

    reader = ["core.beta_in_eigenbasis"]
    assert sorted(set(_scopes(reads({"beta0", "beta1"})))
                  & set(_scopes(reads({"eigenvectors"})))) == reader
    assert _callers("flow") == reader
    assert sorted(set(_scopes(reads({"_phase_limit", "_min_phase_limit"})))) \
        == ["core.SymmetricProfile._flow_tables", *reader]
    assert _naming("require_phase") == []
    assert "dynamics.fixed_point" not in _readers("beta_eval")


def test_the_normal_form_hands_the_solve_its_own_beta():
    """_conjugation_beta solves e^s A beta_g(t) - beta_g(t + c) = beta(t),
    the normal form's own equation, so normal_form passes phi's beta as it
    is: dynamics.py names no beta_eval, and normal_form builds no
    BetaSolution from evaluated data."""
    assert "beta_eval" not in (PACKAGE / "dynamics.py").read_text(encoding="utf-8")
    normal_form, = [node for node in ast.walk(ast.parse(
        (PACKAGE / "dynamics.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "normal_form"]
    solves = [node for node in ast.walk(normal_form) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_conjugation_beta"]
    assert [ast.unparse(call.args[-1]) for call in solves] == ["phi.beta"]
    assert "dynamics.normal_form" not in _readers("BetaSolution")


def test_the_dynamics_solves_share_one_block_split():
    """The conjugation and the fixed point read A as the blocks
    Q_k^T A Q_k of the eigenspaces of S from one helper, its only two
    readers, and no package file solves by least squares."""
    assert sorted(_readers("_eigenspace_blocks")) == ["dynamics._conjugation_beta",
                                                      "dynamics.fixed_point"]
    assert _callers("lstsq") == []


def test_a_simple_spectrum_fixes_points_on_one_by_one_blocks(monkeypatch):
    """At n = 64 with 64 distinct eigenvalues an isometry's fixed point
    takes one batched np.linalg.svd of 64 blocks of 1 x 1, and no 64 x 64
    factorisation."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    prof = cwgeom.SymmetricProfile(Q @ np.diag(-np.linspace(1.0, 3.0, 64)) @ Q.T)
    assert len(set(prof.eigenvalues.tolist())) == 64
    A = prof.eigenvectors @ np.diag(rng.choice([-1.0, 1.0], 64)) @ prof.eigenvectors.T
    phi = cwgeom.Homothety(prof, c=0.4, eps=-1, A=A, beta=cwgeom.BetaSolution(
        prof, rng.normal(size=64), rng.normal(size=64)))
    shapes = {}
    for name in ("svd", "solve", "lstsq", "qr", "inv", "eig", "eigh", "eigvals", "cholesky"):
        def recorded(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            shapes.setdefault(_name, []).append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    cwgeom.fixed_point(phi)
    assert shapes == {"svd": [(64, 1, 1)]}


def test_normal_form_does_not_gate_A_again(monkeypatch):
    """phi's A was gated when phi was built: normal_form checks no
    centraliser membership."""
    prof = cwgeom.SymmetricProfile(-np.eye(2))
    beta = cwgeom.BetaSolution(prof, [1.0, 0.5], [0.5, 1.0])
    phis = [cwgeom.Homothety(prof, b=0.3, beta=beta, c=c, s=0.4, A=[[0.0, -1.0], [1.0, 0.0]])
            for c in (1.0, -1.0)]
    calls = counter(monkeypatch, cwgeom.SymmetricProfile, "in_centraliser")
    for phi in phis:
        cwgeom.normal_form(phi)
    assert calls == []


def test_every_package_definition_has_a_caller():
    """The package's module __getattr__ and __dir__ (PEP 562) count as
    called: the interpreter calls them on cwgeom.name and dir(cwgeom)."""
    used = set().union(*(_references(p) for p in SOURCES)) | {"__getattr__", "__dir__"}
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
