"""A symbolic oracle for the curvature of g_S (sympy).

For S = [[a, b], [b, c]] the metric g_S = 2 dv dt + (x, Sx)(dt)^2 + dx^2
on (t, x1, x2, v) gives, by differentiation alone, the Christoffel
symbols, the Riemann tensor R(X,Y,Z,V) = g(R(X,Y)V, Z) with R(X,Y) =
[nabla_X, nabla_Y] - nabla_[X,Y], its Ricci trace, the scalar curvature,
and the Schouten, Weyl and Cotton tensors, with the Kulkarni-Nomizu
product of `cwgeom.curvature`'s docstring.  At dyadic samples of S of
every type, which floats hold exactly, the closed forms of
`cwgeom.curvature` give the same zeros and every other entry within a
few ulps.
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from cwgeom.core import SymmetricProfile, classify
from cwgeom.curvature import christoffel_at, cotton, ricci, riemann, schouten, scalar, weyl

COORDS = sp.symbols("t x1 x2 v", real=True)
A, B, C = sp.symbols("a b c", real=True)
M = 4
ULPS = 4


def _array(f, rank):
    """The (M,)*rank object array of sympy expressions f(*index), expanded."""
    out = np.empty((M,) * rank, dtype=object)
    for index in itertools.product(range(M), repeat=rank):
        out[index] = sp.expand(f(*index))
    return out


def _kulkarni_nomizu(g, h):
    return _array(lambda x, y, z, v: g[x, z] * h[y, v] + h[x, z] * g[y, v]
                  - g[x, v] * h[y, z] - h[x, v] * g[y, z], 4)


def _derive():
    """Every curvature quantity of g_S for the symbolic S, by its definition."""
    x = sp.Matrix(COORDS[1:3])
    g = np.array(sp.Matrix([[(x.T * sp.Matrix([[A, B], [B, C]]) * x)[0], 0, 0, 1],
                            [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]), dtype=object)
    ginv = np.array(sp.Matrix(g).inv(), dtype=object)

    def d(e, k):
        return sp.diff(e, COORDS[k])

    # gamma[k, i, j] = Gamma^k_ij
    gamma = _array(lambda k, i, j: sum(
        ginv[k, l] * (d(g[l, j], i) + d(g[l, i], j) - d(g[i, j], l)) for l in range(M)) / 2, 3)
    # up[i, j, k, l] = (R(d_i, d_j) d_k)^l
    up = _array(lambda i, j, k, l: d(gamma[l, j, k], i) - d(gamma[l, i, k], j) + sum(
        gamma[l, i, m] * gamma[m, j, k] - gamma[l, j, m] * gamma[m, i, k] for m in range(M)), 4)
    R = _array(lambda i, j, k, l: sum(up[i, j, l, m] * g[m, k] for m in range(M)), 4)
    ric = _array(lambda j, k: sum(up[i, j, k, i] for i in range(M)), 2)
    scal = sp.expand(sum(ginv[j, k] * ric[j, k] for j in range(M) for k in range(M)))
    P = _array(lambda j, k: (ric[j, k] - scal / (2 * (M - 1)) * g[j, k]) / (M - 2), 2)
    W = R - _kulkarni_nomizu(g, P)
    nablaP = _array(lambda i, j, k: d(P[j, k], i) - sum(
        gamma[l, i, j] * P[l, k] + gamma[l, i, k] * P[j, l] for l in range(M)), 3)
    cot = _array(lambda i, j, k: nablaP[i, j, k] - nablaP[j, i, k], 3)
    return {"christoffel": gamma, "riemann": R, "ricci": ric, "scalar": scal,
            "schouten": P, "weyl": W, "cotton": cot}


@pytest.fixture(scope="module")
def symbolic():
    return _derive()


# S = [[a, b], [b, c]] per case, the type classify gives, and whether S is scalar
CASES = {
    "real": ((2, "1/2", 1), "real", False),
    "mixed": ((1, "3/4", "-1/2"), "mixed", False),
    "imaginary": (("-3/2", "1/4", -1), "imaginary", False),
    "degenerate": ((1, "1/2", "1/4"), "degenerate", False),
    "scalar": (("-3/4", 0, "-3/4"), "imaginary", True),
}
POINT = {sym: sp.Rational(value) for sym, value in zip(COORDS, ("1/2", "3/4", "-5/4", "3/8"))}


def assert_matches(got, exact):
    """got equals the exact rationals: zero exactly where they are zero,
    and within ULPS ulps elsewhere."""
    want = np.array([float(e) for e in np.ravel(exact)]).reshape(np.shape(exact))
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got == 0, want == 0)
    assert np.all(np.abs(got - want) <= ULPS * np.spacing(np.abs(want)))


def test_curvature_is_constant_and_cotton_vanishes(symbolic):
    """Only the Christoffel symbols depend on the point: every curvature
    quantity is a polynomial in a, b, c alone, and the Cotton tensor is
    identically zero."""
    for name, value in symbolic.items():
        free = set().union(*(sp.sympify(e).free_symbols for e in np.ravel(value)))
        assert free <= {A, B, C} or name == "christoffel"
    assert all(e == 0 for e in np.ravel(symbolic["cotton"]))
    assert symbolic["scalar"] == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_closed_forms_match_the_symbolic_derivation(symbolic, case):
    (a, b, c), kind, flat = CASES[case]
    sample = {A: sp.Rational(a), B: sp.Rational(b), C: sp.Rational(c)}
    S = np.array([[float(sample[A]), float(sample[B])], [float(sample[B]), float(sample[C])]])
    prof = SymmetricProfile(S)
    assert (classify(prof).type, classify(prof).conformally_flat) == (kind, flat)
    exact = {name: np.vectorize(lambda e: sp.sympify(e).subs(sample).subs(POINT),
                                otypes=[object])(value) for name, value in symbolic.items()}
    point = np.array([float(POINT[sym]) for sym in COORDS])
    assert_matches(christoffel_at(prof, point), exact["christoffel"])
    assert_matches(riemann(prof).components, exact["riemann"])
    assert_matches(ricci(prof), exact["ricci"])
    assert_matches(scalar(prof), exact["scalar"])
    assert_matches(schouten(prof), exact["schouten"])
    assert_matches(weyl(prof).components, exact["weyl"])
    assert_matches(cotton(prof), exact["cotton"])
    assert any(e != 0 for e in np.ravel(exact["weyl"])) != flat
