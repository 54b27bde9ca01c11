"""An extended-precision oracle for the homothety group.

The flow of beta'' = S beta is mpmath's expm of [[0, I], [S, 0]] t at DPS
digits, which shares nothing with cwgeom's eigenbasis code.  On it sit
the action of an element (b, beta, c, eps, A, s) and its Jacobian,

    (t, x, v) |-> (eps t + c, e^s A x + beta(t),
                   eps (e^{2s} v + b - <beta'(t), e^s A x + beta(t)/2>)),

and the product, inverse and powers of elements, each read off the
action alone: the product's beta is the x-part of the composite map and
its b the v-part of its image of the origin, the inverse's b the v-part
of the preimage of the origin, and a power is a chain of products.
Float inputs are converted exactly, so the oracle's own error is far
below float64 round-off."""

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 70


@dataclass(frozen=True)
class Element:
    """A group element over the profile S, with mpf parameters."""

    S: mp.matrix
    b: mp.mpf
    beta0: mp.matrix
    beta1: mp.matrix
    c: mp.mpf
    eps: int
    A: mp.matrix
    s: mp.mpf


def _column(a) -> mp.matrix:
    return mp.matrix([mp.mpf(float(q)) for q in np.ravel(a)])


def _square(a) -> mp.matrix:
    return mp.matrix([[mp.mpf(float(q)) for q in row] for row in np.asarray(a)])


def _dot(x: mp.matrix, y: mp.matrix):
    return mp.fsum(x[i] * y[i] for i in range(x.rows))


def element(phi) -> Element:
    """The oracle's copy of a single cwgeom Homothety, converted exactly."""
    with mp.workdps(DPS):
        return Element(_square(phi.profile.S), mp.mpf(float(phi.b)), _column(phi.beta.beta0),
                       _column(phi.beta.beta1), mp.mpf(float(phi.c)), int(phi.eps),
                       _square(phi.A), mp.mpf(float(phi.s)))


@lru_cache(maxsize=None)
def _propagator(S: tuple, n: int, t, dps: int) -> mp.matrix:
    """expm([[0, I], [S, 0]] t) at dps digits, for S given as its n*n
    entries row by row; a walk of products with one element reads it at
    one t only."""
    M = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        M[i, n + i] = 1
        for j in range(n):
            M[n + i, j] = S[n * i + j]
    return mp.expm(M * t)


def flow(e: Element, t):
    """(beta(t), beta'(t)) of e's beta, by the matrix exponential of the
    first-order system (beta, beta')' = [[0, I], [S, 0]] (beta, beta')."""
    n = e.S.rows
    y = _propagator(tuple(e.S), n, mp.mpf(t), mp.mp.dps) * mp.matrix([*e.beta0, *e.beta1])
    return mp.matrix([y[i] for i in range(n)]), mp.matrix([y[n + i] for i in range(n)])


def _act(e: Element, t, x: mp.matrix, v, known=None):
    """The image (t, x, v) of one point under e; `known` is (beta(t),
    beta'(t)) when known."""
    val, der = flow(e, t) if known is None else known
    esAx = mp.exp(e.s) * (e.A * x)
    return (e.eps * t + e.c, esAx + val,
            e.eps * (mp.exp(2 * e.s) * v + e.b - _dot(der, esAx + val / 2)))


def apply(e: Element, p) -> np.ndarray:
    """The image of the point p, an (n+2,) float array, rounded to floats."""
    with mp.workdps(DPS):
        t, *x, v = (mp.mpf(float(q)) for q in p)
        t, x, v = _act(e, t, mp.matrix(x), v)
        return np.array([float(t), *map(float, x), float(v)])


def jacobian(e: Element, p) -> np.ndarray:
    """The Jacobian of e's action at the point p, an (n+2,) float array,
    rounded to floats: central differences of the action at DPS digits
    with a step of 10^(-DPS/2), whose error is far below float64 round-off."""
    with mp.workdps(DPS):
        q, h = [mp.mpf(float(a)) for a in p], mp.mpf(10) ** (-(DPS // 2))

        def image(j, step):
            t, *x, v = (a + step if i == j else a for i, a in enumerate(q))
            t, x, v = _act(e, t, mp.matrix(x), v)
            return [t, *x, v]

        cols = [[(hi - lo) / (2 * h) for hi, lo in zip(image(j, h), image(j, -h))]
                for j in range(len(q))]
        return np.array([[float(col[i]) for col in cols] for i in range(len(q))])


def _b(beta0: mp.matrix, beta1: mp.matrix, eps: int, v0):
    """The b of the element with initial data (beta0, beta1) and eps that
    maps the origin to a point with v-part v0."""
    return eps * v0 + _dot(beta1, beta0) / 2


def compose(e1: Element, e2: Element) -> Element:
    """The element acting as e1 after e2."""
    with mp.workdps(DPS):
        # x-part of the composite: e^{s1} A1 (e^{s2} A2 x + beta2(t)) + beta1(eps2 t + c2)
        Y, Yd = flow(e1, e2.c)
        es1A1 = mp.exp(e1.s) * e1.A
        beta0, beta1 = es1A1 * e2.beta0 + Y, es1A1 * e2.beta1 + e2.eps * Yd
        eps = e1.eps * e2.eps
        # e2 maps the origin to a point at time c2, where e1's flow is (Y, Y')
        origin = _act(e2, 0, mp.zeros(e1.S.rows, 1), 0, (e2.beta0, e2.beta1))
        _, _, v0 = _act(e1, *origin, (Y, Yd))
        return Element(e1.S, _b(beta0, beta1, eps, v0), beta0, beta1, e1.c + e1.eps * e2.c,
                       eps, e1.A * e2.A, e1.s + e2.s)


def inverse(e: Element) -> Element:
    """The element that undoes e: it maps the origin to the point that e
    maps to the origin, (t, x) = (-eps c, -e^{-s} A^-1 beta(t)).  A^-1 is
    the exact inverse of the float matrix A, which is orthogonal only to
    round-off."""
    with mp.workdps(DPS):
        t = -e.eps * e.c
        val, der = flow(e, t)
        ems, A_inv = mp.exp(-e.s), mp.inverse(e.A)
        beta0, beta1 = -ems * (A_inv * val), -ems * e.eps * (A_inv * der)
        # the v whose image under e has v-part 0, with e^s A x = -beta(t)
        v0 = ems ** 2 * (_dot(der, -val / 2) - e.b)
        return Element(e.S, _b(beta0, beta1, e.eps, v0), beta0, beta1, t, e.eps, A_inv, -e.s)


def powers(e: Element, k: int) -> list:
    """[e, e^2, ..., e^k] by k - 1 products with e; k >= 1."""
    out = [e]
    for _ in range(k - 1):
        out.append(compose(out[-1], e))
    return out


def power(e: Element, k: int) -> Element:
    """e^k by |k| - 1 products of e, or of its inverse for k < 0; k != 0."""
    return powers(e if k > 0 else inverse(e), abs(k))[-1]


def fixed_point(e: Element) -> np.ndarray:
    """The fixed point of an element with eps = -1 or c = 0 whose e^s A - I
    is invertible and whose eps e^{2s} is not 1, rounded to floats: at the
    fixed time t* (c/2 for eps = -1, else 0), x solves
    (e^s A - I) x = -beta(t*), and v solves v = eps (e^{2s} v + b -
    <beta'(t*), e^s A x + beta(t*)/2>)."""
    with mp.workdps(DPS):
        t = e.c / 2 if e.eps == -1 else mp.mpf(0)
        val, der = flow(e, t)
        esA = mp.exp(e.s) * e.A
        x = mp.lu_solve(esA - mp.eye(e.S.rows), -val)
        d = e.eps * (e.b - _dot(der, esA * x + val / 2))
        v = d / (1 - e.eps * mp.exp(2 * e.s))
        return np.array([float(t), *map(float, x), float(v)])


def relative_error(phi, e: Element, with_b: bool = True) -> float:
    """Max |parameter of the cwgeom element phi - parameter of e| over the
    largest |parameter| of e, or over 1 if that is smaller; infinite if
    the eps parts differ.  With with_b false, b is left out of both."""
    if int(phi.eps) != e.eps:
        return np.inf
    with mp.workdps(DPS):
        want = np.array([float(q) for q in (e.b, *e.beta0, *e.beta1, e.c, *e.A, e.s)])
    got = np.r_[phi.b, phi.beta.beta0, phi.beta.beta1, phi.c, np.ravel(phi.A), phi.s]
    if not with_b:
        want, got = want[1:], got[1:]
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def image_error(row, e: Element) -> float:
    """The error of row, an (n+2,) float array, as e's image of the origin,
    (c, beta(0), eps (b - <beta'(0), beta(0)>/2)), each part over its own
    terms: (t, x) over max(1, |c|, |beta(0)|), v over the larger of |b|
    and |beta'(0)| |beta(0)| / 2, or absolute where both are 0."""
    with mp.workdps(DPS):
        t, x, v = _act(e, 0, mp.zeros(e.S.rows, 1), 0, (e.beta0, e.beta1))
        want = np.array([float(t), *map(float, x)])
        size = max(abs(float(e.b)), float(mp.norm(e.beta1) * mp.norm(e.beta0)) / 2)
        return max(float(np.max(np.abs(row[:-1] - want))) / max(1.0, np.max(np.abs(want))),
                   float(abs(mp.mpf(float(row[-1])) - v)) / (size or 1.0))


def b_error(phi, e: Element) -> float:
    """|b of the cwgeom element phi - b of e| over the size of the terms
    the oracle's b sums, the larger of |b| and |<beta'(0), beta(0)>| / 2:
    relative, however small b is.  The oracle reads b off the action of
    float parameters, and an A orthogonal only to round-off leaves that
    round-off times the second term in it."""
    with mp.workdps(DPS):
        size = max(abs(float(e.b)), abs(float(_dot(e.beta1, e.beta0))) / 2)
        return float(abs(mp.mpf(float(phi.b)) - e.b)) / size
