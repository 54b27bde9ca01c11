"""Arithmetic in the homothety group H_S = Hei_n x| (E(1) x C_O(n)(S) x R).

A group element is the map

    (t, x, v) |-> (eps t + c,
                   e^s A x + beta(t),
                   eps (e^{2s} v + b - <beta'(t), e^s A x + beta(t)/2>)),

with beta a solution of beta'' = S beta, A orthogonal and commuting with
S, eps = +-1.  Composition and inversion are computed at parameter level;
the central parameter b of a product is recovered exactly by evaluating
both sides at the origin (the v-component is affine in b with slope eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import (
    BetaSolution,
    Point,
    SymmetricProfile,
    TangentVector,
    add_beta,
    beta_eval,
    beta_reparam,
    scale_beta,
)
from .curvature import metric_at
from .errors import IncompatibleProfileError

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
        return replace(self, A=U @ Vt)


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


def _b_from_origin(candidate: Homothety, target_v: float) -> Homothety:
    """Fix the central parameter so that the candidate maps the origin to a
    point with the given v-coordinate.  Exact: v(origin) is b-affine with
    slope eps."""
    v0 = apply(candidate, Point(0.0, np.zeros(candidate.profile.n), 0.0)).v
    return replace(candidate, b=candidate.b + candidate.eps * (target_v - v0))


def compose(phi: Homothety, psi: Homothety) -> Homothety:
    """Group product: apply(compose(phi, psi), p) = apply(phi, apply(psi, p))."""
    if phi.profile != psi.profile:
        raise IncompatibleProfileError("cannot compose over different profiles")
    prof = phi.profile
    eps = phi.eps * psi.eps
    c = phi.c + phi.eps * psi.c
    A = phi.A @ psi.A
    s = phi.s + psi.s
    # x-part of the composite: e^{s1+s2} A1 A2 x + e^{s1} A1 beta2(t) + beta1(eps2 t + c2)
    part = scale_beta(psi.beta, np.exp(phi.s), phi.A)
    shifted = beta_reparam(phi.beta, psi.c, psi.eps)
    beta = add_beta(part, shifted)
    candidate = Homothety(prof, 0.0, beta, c, eps, A, s).renormalized()
    origin = Point(0.0, np.zeros(prof.n), 0.0)
    target = apply(phi, apply(psi, origin))
    return _b_from_origin(candidate, target.v)


def inverse(phi: Homothety) -> Homothety:
    prof = phi.profile
    eps, c, s = phi.eps, phi.c, phi.s
    A_inv = phi.A.T
    # x-part of the inverse: e^{-s} A^T (x - beta(eps^{-1}(t - c))) at time t,
    # i.e. beta_inv(t) = -e^{-s} A^T beta(eps t - eps c)
    val, der = beta_eval(phi.beta, -eps * c)
    beta_inv = BetaSolution(prof, -np.exp(-s) * (A_inv @ val),
                            -np.exp(-s) * eps * (A_inv @ der))
    candidate = Homothety(prof, 0.0, beta_inv, -eps * c, eps, A_inv, -s)
    origin = Point(0.0, np.zeros(prof.n), 0.0)
    image = apply(phi, origin)
    # the inverse must send image back to the origin (v-coordinate 0)
    v0 = apply(candidate, image).v
    return replace(candidate, b=-candidate.eps * v0)


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
    out = identity(phi.profile)
    base = phi if k >= 0 else inverse(phi)
    for _ in range(abs(k)):
        out = compose(out, base)
    return out.renormalized()


def conjugate(g: Homothety, phi: Homothety) -> Homothety:
    """g phi g^{-1}."""
    return compose(g, compose(phi, inverse(g)))


def homothety_factor_check(phi: Homothety,
                           points: Sequence[Point] = None,
                           vectors: Sequence[TangentVector] = None,
                           rng=None) -> float:
    """Max deviation |(phi^* g)(u, w) - e^{2s} g(u, w)| over sample data.

    The pullback uses the analytic Jacobian of the group action.
    """
    prof = phi.profile
    if points is None:
        rng = np.random.default_rng(0) if rng is None else rng
        points = [Point(rng.normal(), rng.normal(size=prof.n), rng.normal())
                  for _ in range(10)]
        vectors = None
    factor = np.exp(2 * phi.s)
    worst = 0.0
    for i, p in enumerate(points):
        J = differential(phi, p)
        g_here = metric_at(prof, p).components
        g_there = metric_at(prof, apply(phi, p)).components
        pullback = J.T @ g_there @ J
        if vectors is None:
            dev = float(np.max(np.abs(pullback - factor * g_here)))
        else:
            u = vectors[2 * i % len(vectors)].as_array()
            w = vectors[(2 * i + 1) % len(vectors)].as_array()
            dev = abs(float(u @ pullback @ w) - factor * float(u @ g_here @ w))
        worst = max(worst, dev)
    return worst


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
