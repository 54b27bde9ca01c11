"""Arithmetic in the homothety group H_S = Hei_n x| (E(1) x C_O(n)(S) x R).

A group element is the map

    (t, x, v) |-> (eps t + c,
                   e^s A x + beta(t),
                   eps (e^{2s} v + b - <beta'(t), e^s A x + beta(t)/2>)),

with beta a solution of beta'' = S beta, A orthogonal and commuting with
S, eps = +-1.  Composition and inversion are computed at parameter level,
the central parameter b in closed form: for a product phi psi, with
X = e^{s1} A1 beta2(0), X' = e^{s1} A1 beta2'(0) and (Y, Y') =
(beta1(c2), beta1'(c2)),

    b = e^{2 s1} b2 + eps2 b1 + (<X', Y> - eps2 <Y', X>) / 2,

and the inverse has b^{-1} = -eps e^{-2s} b.

A (and the profile of beta) is validated where an element is built from
outside; products, inverses and renormalised elements of valid elements
are checked only for overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from .core import (
    BetaSolution,
    Point,
    SymmetricProfile,
    beta_eval,
)
from .curvature import metric_at
from .errors import IncompatibleProfileError, OverflowingValueError
from .flat import SmoothMap, conformal_defect

PARAM_TOL = 1e-9


@dataclass(frozen=True)
class Homothety:
    """Group element (b, beta, c, eps, A, s) of H_S."""

    profile: SymmetricProfile
    b: float = 0.0
    beta: BetaSolution = None
    c: float = 0.0
    eps: int = 1
    A: np.ndarray = None
    s: float = 0.0

    def __post_init__(self):
        p = self.profile
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        beta = self.beta if self.beta is not None else BetaSolution(p)
        if beta.profile != p:
            raise IncompatibleProfileError("beta built over a different profile")
        A = np.eye(p.n) if self.A is None else p.require_centraliser(self.A)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "s", float(self.s))

    @property
    def is_strict(self) -> bool:
        return abs(self.s) > PARAM_TOL

    def renormalized(self) -> "Homothety":
        """Project A back to the orthogonal group (polar decomposition) if
        numerical drift has accumulated."""
        drift = float(np.max(np.abs(self.A.T @ self.A - np.eye(self.profile.n))))
        if drift <= PARAM_TOL:
            return self
        U, _, Vt = np.linalg.svd(self.A)
        return _element(self.profile, self.b, self.beta, self.c, self.eps, U @ Vt, self.s)


_FIELDS = tuple(f.name for f in fields(Homothety))


def _element(*params) -> Homothety:
    """A Homothety from parameters, in field order, derived from valid
    elements.  It skips the centraliser and profile checks of the public
    constructor; a parameter that overflowed raises OverflowingValueError."""
    phi = object.__new__(Homothety)
    for name, value in zip(_FIELDS, params, strict=True):
        object.__setattr__(phi, name, value)
    if not (math.isfinite(phi.b) and math.isfinite(phi.c) and math.isfinite(phi.s)
            and np.isfinite(phi.beta.beta0).all() and np.isfinite(phi.beta.beta1).all()):
        raise OverflowingValueError("group element has non-finite parameters")
    return phi


def identity(profile: SymmetricProfile) -> Homothety:
    return Homothety(profile)


def pure_homothety(profile: SymmetricProfile, s: float) -> Homothety:
    """h_s : (t, x, v) -> (t, e^s x, e^{2s} v)."""
    return Homothety(profile, s=s)


def apply(phi: Homothety, p: Point) -> Point:
    if p.x.shape != (phi.profile.n,):
        raise IncompatibleProfileError("point dimension does not match profile")
    val, der = beta_eval(phi.beta, p.t)
    esAx = np.exp(phi.s) * (phi.A @ p.x)
    t_new = phi.eps * p.t + phi.c
    x_new = esAx + val
    v_new = phi.eps * (np.exp(2 * phi.s) * p.v + phi.b
                       - float(der @ (esAx + 0.5 * val)))
    return Point(t_new, x_new, v_new)


def differential(phi: Homothety, p: Point) -> np.ndarray:
    """Analytic Jacobian of apply(phi, .) at p, in frame order (t, x, v)."""
    prof = phi.profile
    n = prof.n
    m = n + 2
    val, der = beta_eval(phi.beta, p.t)
    dder = prof.S @ val  # beta''(t)
    esAx = np.exp(phi.s) * (phi.A @ p.x)
    J = np.zeros((m, m))
    J[0, 0] = phi.eps
    J[1:-1, 0] = der
    J[1:-1, 1:-1] = np.exp(phi.s) * phi.A
    J[-1, 0] = -phi.eps * (float(dder @ (esAx + 0.5 * val)) + 0.5 * float(der @ der))
    J[-1, 1:-1] = -phi.eps * np.exp(phi.s) * (phi.A.T @ der)
    J[-1, -1] = phi.eps * np.exp(2 * phi.s)
    return J


def compose(phi: Homothety, psi: Homothety) -> Homothety:
    """Group product: apply(compose(phi, psi), p) = apply(phi, apply(psi, p))."""
    if phi.profile != psi.profile:
        raise IncompatibleProfileError("cannot compose over different profiles")
    # x-part of the composite: e^{s1+s2} A1 A2 x + e^{s1} A1 beta2(t) + beta1(eps2 t + c2)
    es1A1 = np.exp(phi.s) * phi.A
    X = es1A1 @ psi.beta.beta0
    Xd = es1A1 @ psi.beta.beta1
    Y, Yd = beta_eval(phi.beta, psi.c)
    e2 = psi.eps
    b = (np.exp(2 * phi.s) * psi.b + e2 * phi.b
         + 0.5 * (float(Xd @ Y) - e2 * float(Yd @ X)))
    beta = BetaSolution(phi.profile, X + Y, Xd + e2 * Yd)
    return _element(phi.profile, float(b), beta, phi.c + phi.eps * psi.c, phi.eps * e2,
                    phi.A @ psi.A, phi.s + psi.s).renormalized()


def inverse(phi: Homothety) -> Homothety:
    eps, c, s = phi.eps, phi.c, phi.s
    A_inv = phi.A.T
    # x-part of the inverse: e^{-s} A^T (x - beta(eps^{-1}(t - c))) at time t,
    # i.e. beta_inv(t) = -e^{-s} A^T beta(eps t - eps c)
    val, der = beta_eval(phi.beta, -eps * c)
    ems = np.exp(-s)
    beta_inv = BetaSolution(phi.profile, -ems * (A_inv @ val), -ems * eps * (A_inv @ der))
    return _element(phi.profile, float(-eps * ems * ems * phi.b), beta_inv, -eps * c, eps,
                    A_inv, -s)


def project(phi: Homothety) -> Tuple[float, int, np.ndarray, float]:
    """Quotient map H_S -> E(1) x C_O(n)(S) x R, dropping (b, beta)."""
    return (phi.c, phi.eps, phi.A.copy(), phi.s)


def element_distance(phi: Homothety, psi: Homothety) -> float:
    """Max componentwise distance of the parameter tuples; infinite if the
    eps parts differ."""
    if phi.eps != psi.eps:
        return np.inf
    return max(
        abs(phi.b - psi.b),
        float(np.max(np.abs(phi.beta.beta0 - psi.beta.beta0))),
        float(np.max(np.abs(phi.beta.beta1 - psi.beta.beta1))),
        abs(phi.c - psi.c),
        float(np.max(np.abs(phi.A - psi.A))),
        abs(phi.s - psi.s),
    )


def is_identity(phi: Homothety, tol: float = PARAM_TOL) -> bool:
    return element_distance(phi, identity(phi.profile)) <= tol


def power(phi: Homothety, k: int) -> Homothety:
    """phi^k by repeated squaring: at most 2 log2|k| products."""
    out = identity(phi.profile)
    base = phi if k >= 0 else inverse(phi)
    k = abs(k)
    while k:
        if k & 1:
            out = compose(out, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return out.renormalized()


def conjugate(g: Homothety, phi: Homothety) -> Homothety:
    """g phi g^{-1}."""
    return compose(g, compose(phi, inverse(g)))


def homothety_factor_check(phi: Homothety, points: Sequence[Point] = None,
                           rng=None) -> float:
    """Max entrywise deviation |phi^* g - e^{2s} g| over sample points (ten
    random ones by default), through the analytic Jacobian of the action."""
    prof = phi.profile
    if points is None:
        rng = np.random.default_rng(0) if rng is None else rng
        points = [Point(rng.normal(), rng.normal(size=prof.n), rng.normal())
                  for _ in range(10)]
    action = SmoothMap(prof.n, partial(apply, phi), partial(differential, phi))
    gram = lambda q: metric_at(prof, q).components
    return conformal_defect(action, gram, gram, lambda p: np.exp(2 * phi.s), points)


def centralises(phi: Homothety, eta: Homothety, tol: float = 1e-8) -> bool:
    return element_distance(compose(phi, eta), compose(eta, phi)) <= tol


def centraliser_of_pure(s: float):
    """Membership predicate for C_{H_S}(h_s), s != 0: the Heisenberg part
    must vanish, leaving E(1) x C_O(n)(S) x R."""
    if abs(s) <= PARAM_TOL:
        raise ValueError("the pure homothety must be strict")

    def predicate(phi: Homothety, tol: float = PARAM_TOL) -> bool:
        return abs(phi.b) <= tol and phi.beta.is_zero(tol)

    return predicate


@dataclass(frozen=True)
class GroupWord:
    """A word in a finite generator list, as (index, exponent) letters."""

    generators: List[Homothety]
    letters: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        for idx, _ in self.letters:
            if not 0 <= idx < len(self.generators):
                raise IndexError(f"letter index {idx} out of range")

    def evaluate(self) -> Homothety:
        prof = self.generators[0].profile
        out = identity(prof)
        for idx, exp in self.letters:
            out = compose(out, power(self.generators[idx], exp))
        return out.renormalized()
