"""The tolerance policy: every threshold of the library is named once, in
core's table, every verdict goes through core.within, the README lists the
table, and the PD sweep's thresholds agree with the benchmark's own oracle
of them (perfbench/inputs.py), which copies them by value."""

import ast
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from cwgeom import core
from cwgeom.core import PARAM_TOL, PD_SLACK, SymmetricProfile, classify, within
from cwgeom.dynamics import pd_necessary_report
from cwgeom.group import Homothety

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cwgeom"
# a float literal in exponent form below 1, such as 1e-8
THRESHOLD = re.compile(r"\d[eE]-\d")
# definitions outside core's table that may hold such literals, each with its reason
ALLOWED = {}
# the judges, and the position of the tolerance among their arguments
JUDGES = {"within": 1, "_check": 2}
# a name that holds a tolerance: a factor on it is named in core's table too
TOLERANCE_NAME = re.compile(r"tol|threshold", re.IGNORECASE)


def _table():
    """The names of core's table: its module-level constants."""
    return [node.targets[0].id for node in ast.parse((PACKAGE / "core.py").read_text()).body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.isupper()]


def _threshold_literals(path):
    """(line, text, names of the enclosing definitions) of each float
    literal in exponent form below 1 in the code of a file (docstrings and
    comments are not code)."""
    source = path.read_text(encoding="utf-8")
    found = []

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners + (node.name,)
        elif isinstance(node, ast.Assign):
            owners = owners + tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            text = ast.get_source_segment(source, node)
            if THRESHOLD.search(text):
                found.append((node.lineno, text, owners))
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(ast.parse(source), ())
    return found


def test_every_threshold_literal_is_in_cores_table():
    table = set(_table())
    stray = [f"{path.name}:{line}: {text}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, text, owners in _threshold_literals(path)
             if not (path.name == "core.py" and owners[:1] and owners[0] in table)
             and not any((path.name, owner) in ALLOWED for owner in owners)]
    assert stray == []


def test_every_allowed_literal_still_exists():
    held = {(path.name, owner) for path in PACKAGE.glob("*.py")
            for _, _, owners in _threshold_literals(path) for owner in owners}
    assert sorted(set(ALLOWED) - held) == []


def test_every_judged_tolerance_is_named():
    literal = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "func", None)
            name = getattr(name, "id", getattr(name, "attr", None))
            if name in JUDGES:
                tol = (node.args[JUDGES[name]] if len(node.args) > JUDGES[name]
                       else next(k.value for k in node.keywords if k.arg == "tol"))
                if not isinstance(tol, (ast.Name, ast.Attribute)):
                    literal.append(f"{path.name}:{node.lineno}")
    assert literal == []


def _factors(node):
    """The factors of a product, through nested multiplications."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _is_number(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_no_tolerance_is_scaled_by_a_bare_number():
    """A product of a tolerance or threshold name with a numeric literal,
    such as `tolerance * 10`, hides a factor outside core's table."""
    scaled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            factors = _factors(node)
            names = [getattr(f, "id", getattr(f, "attr", "")) for f in factors]
            if (len(factors) > 1 and any(map(_is_number, factors))
                    and any(TOLERANCE_NAME.search(name) for name in names if name)):
                scaled.add(f"{path.name}:{node.lineno}")
    assert sorted(scaled) == []


def test_the_unit_floor_is_stated_once():
    """Only core.within reads a size through max(1, size): a threshold
    elsewhere floored at 1.0 would be absolute below unit scale, a second
    regime of thresholds.  An integer max(1, ...), such as the PD sweep's
    row count, is not a threshold."""
    floored = []

    def walk(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("max", "maximum") and (path.name, owner) != ("core.py", "within") and any(
                    isinstance(a, ast.Constant) and type(a.value) is float and a.value == 1.0
                    for a in node.args):
                floored.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            walk(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert floored == []


def test_readme_lists_the_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M))
    assert sorted(rows) == sorted(_table())
    assert all(float(rows[name]) == getattr(core, name) for name in rows)


class TestWithin:
    def test_absolute_up_to_size_one(self):
        assert within(0.9e-8, 1e-8) and not within(1.1e-8, 1e-8)
        assert within(0.9e-8, 1e-8, 0.5) and not within(1.1e-8, 1e-8, 0.5)

    def test_relative_past_size_one(self):
        assert within(0.9e-4, 1e-8, 1e4) and not within(1.1e-4, 1e-8, 1e4)

    def test_nan_fails(self):
        assert not within(np.nan, 1.0)
        assert not within(np.nan, 1.0, 1e300)

    def test_elementwise(self):
        got = within(np.array([0.5e-8, 2e-8, np.nan, 2e-8]), 1e-8, np.array([1, 1, 1, 3]))
        assert got.tolist() == [True, False, False, True]


def _benchmark_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, w", [("real", [2.0, 0.5]), ("mixed", [3.0, -1.0]),
                                     ("imaginary", [-1.0, -2.0])])
def test_pd_sweep_agrees_with_the_benchmark_on_boundary_words(kind, w):
    """Generators at each threshold of the sweep, just inside and just
    outside: |s| and |c| at PARAM_TOL (1 +- 1e-3), and (s/c)^2 at
    lambda_max^2 + PD_SLACK (1 +- 0.5).  A threshold made relative in
    only one of the two would flip some of these words."""
    prof = SymmetricProfile(np.diag(w))
    lam_sq = max(w) if max(w) > 0 else None
    assert classify(prof).lambda_max_sq == lam_sq
    near = [PARAM_TOL * (1 + d) for d in (-1e-3, 1e-3)]
    gens = ([dict(eps=-1, c=0.3, s=s) for s in near]        # strict iff |s| > PARAM_TOL
            + [dict(eps=1, c=c, s=0.5) for c in near])      # a fixed time iff |c| <= PARAM_TOL
    if lam_sq is not None:
        gens += [dict(eps=1, c=1.0, s=float(np.sqrt(lam_sq + PD_SLACK * (1 + d))))
                 for d in (-0.5, 0.5)]
    seen, oracle = _benchmark_inputs().quotient_law_report(
        gens, {"w": np.array(w), "kind": kind}, 2)
    rep = pd_necessary_report([Homothety(prof, **g) for g in gens], max_length=2)
    assert rep.words_checked == seen
    assert [(o.word, o.kind) for o in rep.obstructions] == oracle
    # each pair of generators straddles its threshold: one word of the pair
    # obstructs differently from the other
    kinds = dict((word, k) for word, k in oracle if len(word) == 1)
    for i in range(0, len(gens), 2):
        assert kinds.get((i + 1,)) != kinds.get((i + 2,))
