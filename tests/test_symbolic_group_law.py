"""A symbolic oracle for the group law (sympy).

At n = 1 on a positive eigenvalue r^2 every solution of beta'' = S beta is
beta = a e^{rt} + d e^{-rt}.  For each of the 16 sign choices of
(eps1, eps2, A1, A2), the parameters of phi psi, built by `compose`'s
formulas (b in closed form, beta from its initial data), act exactly as
phi after psi; and `group.compose` at rational sample values gives those
parameters in floats.
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from cwgeom.core import BetaSolution, SymmetricProfile
from cwgeom.group import Homothety, compose

T, X, V = sp.symbols("t x v", real=True)
R = sp.Symbol("r", positive=True)
SIGNS = list(itertools.product((1, -1), repeat=4))
SIGN_IDS = ["eps{:+d}{:+d}-A{:+d}{:+d}".format(*signs) for signs in SIGNS]


def _element(k, eps, A):
    """Element k with free parameters, beta = a_k e^{rt} + d_k e^{-rt}."""
    b, a, d, c, s = sp.symbols(f"b{k} a{k} d{k} c{k} s{k}", real=True)
    return {"b": b, "beta0": a + d, "beta1": R * (a - d), "c": c, "eps": eps, "A": A, "s": s}


def _beta(e, t):
    """beta(t), and beta'(t), from the initial data (beta(0), beta'(0))."""
    grow = (e["beta0"] + e["beta1"] / R) / 2 * sp.exp(R * t)
    decay = (e["beta0"] - e["beta1"] / R) / 2 * sp.exp(-R * t)
    return grow + decay, R * (grow - decay)


def _act(e, p):
    t, x, v = p
    y, dy = _beta(e, t)
    esAx = sp.exp(e["s"]) * e["A"] * x
    return (e["eps"] * t + e["c"], esAx + y,
            e["eps"] * (sp.exp(2 * e["s"]) * v + e["b"] - dy * (esAx + y / 2)))


def _product(f, g):
    """The parameters of f g, by the formulas of group.compose."""
    Xs, Xd = (sp.exp(f["s"]) * f["A"] * g[k] for k in ("beta0", "beta1"))
    Y, Yd = _beta(f, g["c"])
    e2 = g["eps"]
    return {"b": sp.exp(2 * f["s"]) * g["b"] + e2 * f["b"] + (Xd * Y - e2 * Yd * Xs) / 2,
            "beta0": Xs + Y, "beta1": Xd + e2 * Yd, "c": f["c"] + f["eps"] * g["c"],
            "eps": f["eps"] * e2, "A": f["A"] * g["A"], "s": f["s"] + g["s"]}


@pytest.mark.parametrize("eps1, eps2, A1, A2", SIGNS, ids=SIGN_IDS)
def test_product_acts_as_the_composite(eps1, eps2, A1, A2):
    f, g = _element(1, eps1, A1), _element(2, eps2, A2)
    lhs = _act(_product(f, g), (T, X, V))
    rhs = _act(f, _act(g, (T, X, V)))
    assert [sp.expand(a - b) for a, b in zip(lhs, rhs)] == [0, 0, 0]


# dyadic rationals, so the float inputs are the sample values exactly
SAMPLE = {sp.Symbol(name, real=True): sp.Rational(value) for name, value in (
    ("a1", "3/4"), ("d1", "-5/8"), ("b1", "1/2"), ("c1", "5/4"), ("s1", "3/8"),
    ("a2", "-1/2"), ("d2", "7/8"), ("b2", "-3/4"), ("c2", "-3/4"), ("s2", "-5/8"))}
SAMPLE[R] = sp.Rational(3, 2)


def _float_element(prof, e):
    value = {k: float(e[k].subs(SAMPLE)) for k in ("b", "beta0", "beta1", "c", "s")}
    return Homothety(prof, b=value["b"], beta=BetaSolution(prof, [value["beta0"]],
                                                           [value["beta1"]]),
                     c=value["c"], eps=e["eps"], A=[[e["A"]]], s=value["s"])


@pytest.mark.parametrize("eps1, eps2, A1, A2", SIGNS, ids=SIGN_IDS)
def test_compose_matches_the_symbolic_product(eps1, eps2, A1, A2):
    f, g = _element(1, eps1, A1), _element(2, eps2, A2)
    prof = SymmetricProfile([[float(SAMPLE[R] ** 2)]])
    h = compose(_float_element(prof, f), _float_element(prof, g))
    want = _product(f, g)
    assert h.eps == want["eps"] and np.array_equal(h.A, [[want["A"]]])
    got = {"b": h.b, "beta0": h.beta.beta0[0], "beta1": h.beta.beta1[0], "c": h.c, "s": h.s}
    for key, value in got.items():
        exact = float(sp.N(want[key].subs(SAMPLE), 30))
        assert value == pytest.approx(exact, rel=1e-14, abs=0), key
