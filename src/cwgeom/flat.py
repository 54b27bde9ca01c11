"""Conformally flat machinery: the global map of the real-type space onto
the Minkowski half-space {u > 0}, the imaginary-type local map on the
strip |t| < pi/2, generic metric pullback through analytic or
finite-difference Jacobians, and the closed-form blow-up of the Riccati
equation that rules out a global flat rescaling in the imaginary case.

Flat coordinates are ordered (u, y^1..y^n, z) with the Minkowski metric
g0 = 2 du dz + dy^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Point, SymmetricProfile
from .curvature import ScalarJet2, SymBilinear, conformal_christoffel_at
from .errors import DomainError

FD_STEP = 1e-6
DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map of R^{n+2} given by closed-form evaluators."""

    n: int
    forward: Callable[[Point], Point]
    jacobian: Optional[Callable[[Point], np.ndarray]] = None
    inverse: Optional[Callable[[Point], Point]] = None
    in_domain: Callable[[Point], bool] = lambda p: True

    def __call__(self, p: Point) -> Point:
        if not self.in_domain(p):
            raise DomainError(f"point outside the map's domain: {p}")
        return self.forward(p)

    def jacobian_at(self, p: Point) -> np.ndarray:
        """Analytic Jacobian if present, else central finite differences."""
        if self.jacobian is not None:
            return self.jacobian(p)
        m = self.n + 2
        a = p.as_array()
        J = np.zeros((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = FD_STEP
            fp = self.forward(Point.from_array(a + e)).as_array()
            fm = self.forward(Point.from_array(a - e)).as_array()
            J[:, j] = (fp - fm) / (2 * FD_STEP)
        return J


def identity_map(n: int) -> SmoothMap:
    m = n + 2
    return SmoothMap(n, forward=lambda p: p,
                     jacobian=lambda p: np.eye(m),
                     inverse=lambda p: p)


def compose_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer after inner, with chained Jacobians and inverses if present."""
    inv = None
    if outer.inverse is not None and inner.inverse is not None:
        def inv(q, _o=outer, _i=inner):
            return _i.inverse(_o.inverse(q))
    jac = None
    if outer.jacobian is not None and inner.jacobian is not None:
        def jac(p, _o=outer, _i=inner):
            return _o.jacobian(_i.forward(p)) @ _i.jacobian(p)
    return SmoothMap(outer.n, forward=lambda p: outer.forward(inner.forward(p)),
                     jacobian=jac, inverse=inv, in_domain=inner.in_domain)


def minkowski_metric(n: int) -> SymBilinear:
    """Gram matrix of g0 = 2 du dz + dy^2 in the (u, y, z) frame."""
    m = n + 2
    g = np.zeros((m, m))
    g[0, -1] = g[-1, 0] = 1.0
    g[1:-1, 1:-1] = np.eye(n)
    return SymBilinear(n, g)


def minkowski_map(n: int) -> SmoothMap:
    """The conformal diffeomorphism of the real-type model space onto the
    half-space {u > 0}: u = e^{2t}/2, y = e^t x, z = v - |x|^2/2."""

    def fwd(p: Point) -> Point:
        et = np.exp(p.t)
        return Point(0.5 * et * et, et * p.x, p.v - 0.5 * float(p.x @ p.x))

    def jac(p: Point) -> np.ndarray:
        m = n + 2
        et = np.exp(p.t)
        J = np.zeros((m, m))
        J[0, 0] = et * et
        J[1:-1, 0] = et * p.x
        J[1:-1, 1:-1] = et * np.eye(n)
        J[-1, 1:-1] = -p.x
        J[-1, -1] = 1.0
        return J

    def inv(q: Point) -> Point:
        if q.t <= DOMAIN_TOL:
            raise DomainError("inverse of the Minkowski map needs u > 0")
        t = 0.5 * np.log(2.0 * q.t)
        x = q.x / np.sqrt(2.0 * q.t)
        return Point(t, x, q.v + 0.5 * float(x @ x))

    return SmoothMap(n, forward=fwd, jacobian=jac, inverse=inv)


def imaginary_local_map(n: int) -> SmoothMap:
    """The local conformal map of the imaginary-type model on the strip
    |t| < pi/2: u = tan t, y = x/cos t, z = v - |x|^2 tan(t)/2."""

    def in_dom(p: Point) -> bool:
        return abs(p.t) < np.pi / 2 - DOMAIN_TOL

    def fwd(p: Point) -> Point:
        if not in_dom(p):
            raise DomainError("imaginary-type map requires |t| < pi/2")
        ct, tt = np.cos(p.t), np.tan(p.t)
        return Point(tt, p.x / ct, p.v - 0.5 * float(p.x @ p.x) * tt)

    def jac(p: Point) -> np.ndarray:
        if not in_dom(p):
            raise DomainError("imaginary-type map requires |t| < pi/2")
        m = n + 2
        ct, st = np.cos(p.t), np.sin(p.t)
        tt = st / ct
        J = np.zeros((m, m))
        J[0, 0] = 1.0 / ct ** 2
        J[1:-1, 0] = p.x * st / ct ** 2
        J[1:-1, 1:-1] = np.eye(n) / ct
        J[-1, 0] = -0.5 * float(p.x @ p.x) / ct ** 2
        J[-1, 1:-1] = -tt * p.x
        J[-1, -1] = 1.0
        return J

    def inv(q: Point) -> Point:
        t = np.arctan(q.t)
        x = q.x * np.cos(t)
        return Point(t, x, q.v + 0.5 * float(x @ x) * np.tan(t))

    return SmoothMap(n, forward=fwd, jacobian=jac, inverse=inv, in_domain=in_dom)


def minkowski_dilation(n: int, c: float) -> SmoothMap:
    """(u, y, z) -> (e^{2c} u, e^c y, z): the t-translation by c seen
    through the Minkowski map."""
    m = n + 2
    D = np.diag([np.exp(2 * c)] + [np.exp(c)] * n + [1.0])
    return SmoothMap(n, forward=lambda p: Point.from_array(D @ p.as_array()),
                     jacobian=lambda p: D,
                     inverse=lambda q: Point.from_array(np.linalg.solve(D, q.as_array())))


def minkowski_inversion(n: int) -> SmoothMap:
    """(u, y, z) -> (1/(4u), y/(2u), -z - |y|^2/(2u)): the isometry
    (t, x, v) -> (-t, x, -v) seen through the Minkowski map; satisfies
    eta^* g0 = g0 / (4u^2) on {u > 0}."""

    def in_dom(q: Point) -> bool:
        return q.t > DOMAIN_TOL

    def fwd(q: Point) -> Point:
        if not in_dom(q):
            raise DomainError("the inversion is defined on {u > 0}")
        u = q.t
        return Point(0.25 / u, q.x / (2 * u), -q.v - 0.5 * float(q.x @ q.x) / u)

    def jac(q: Point) -> np.ndarray:
        if not in_dom(q):
            raise DomainError("the inversion is defined on {u > 0}")
        m = n + 2
        u = q.t
        J = np.zeros((m, m))
        J[0, 0] = -0.25 / u ** 2
        J[1:-1, 0] = -q.x / (2 * u ** 2)
        J[1:-1, 1:-1] = np.eye(n) / (2 * u)
        J[-1, 0] = 0.5 * float(q.x @ q.x) / u ** 2
        J[-1, 1:-1] = -q.x / u
        J[-1, -1] = -1.0
        return J

    return SmoothMap(n, forward=fwd, jacobian=jac, inverse=fwd, in_domain=in_dom)


def pullback_metric(mapping: SmoothMap,
                    target_metric: Callable[[Point], SymBilinear],
                    p: Point) -> SymBilinear:
    """(phi^* g)|_p = J^T g|_{phi(p)} J with the map's Jacobian."""
    if not mapping.in_domain(p):
        raise DomainError(f"point outside the map's domain: {p}")
    J = mapping.jacobian_at(p)
    G = target_metric(mapping.forward(p)).components
    return SymBilinear(mapping.n, J.T @ G @ J)


def flatness_blowup_demo(epsilon: int, y0: float = 0.0, tmax: float = 10.0,
                         profile: SymmetricProfile = None):
    """The dichotomy behind global flat rescalings.

    epsilon = -1 (imaginary type): y' = y^2 + 1 with y(0) = y0 has the
    solution y = tan(t + arctan y0), which blows up in finite time, showing
    that no globally defined rescaling exists.  The reported blow-up time
    is the first t >= 0 with |y(t)| >= 1e8, or None when that lies beyond
    tmax.  epsilon = +1 (real type): checks that the 2-jet of f = t has
    vanishing covariant Hessian and null gradient for g_+, the equation
    solved by the global rescaling.
    """
    if epsilon == -1:
        escape = 1e8
        # y increases on [0, pi/2 - arctan y0), so from |y0| < escape it
        # first reaches |y| = escape at y = +escape
        t = 0.0 if abs(y0) >= escape else float(np.arctan(escape) - np.arctan(y0))
        blowup = t if t <= tmax else None
        return {"blowup_t": blowup, "blowup": blowup is not None}
    if epsilon != 1:
        raise ValueError("epsilon must be +1 or -1")
    from .curvature import conformal_change_at, metric_at, nabla_df

    prof = profile if profile is not None else SymmetricProfile(np.eye(2))
    n = prof.n
    rng = np.random.default_rng(7)
    worst_hess = 0.0
    worst_null = 0.0
    worst_ric = 0.0
    for _ in range(5):
        p = Point(rng.normal(), rng.normal(size=n), rng.normal())
        grad = np.zeros(n + 2)
        grad[0] = 1.0
        jet = ScalarJet2(p.t, grad, np.zeros((n + 2, n + 2)))
        hess = nabla_df(prof, p, jet)
        worst_hess = max(worst_hess, float(np.max(np.abs(hess.components))))
        ginv = np.linalg.inv(metric_at(prof, p).components)
        worst_null = max(worst_null, abs(float(grad @ ginv @ grad)))
        out = conformal_change_at(prof, p, jet)
        worst_ric = max(worst_ric, float(np.max(np.abs(out["ricci_hat"].components))))
    return {"hessian_residual": worst_hess, "null_gradient_residual": worst_null,
            "ricci_hat_residual": worst_ric, "blowup": False, "blowup_t": None}


def incomplete_geodesic_residual(profile: SymmetricProfile, s: float) -> float:
    """Residual of the geodesic equation of g_hat = e^{2t} g_+ along the
    curve s -> (ln(2s+1)/2, 0, 0), which leaves the space at s = -1/2."""
    if s <= -0.5:
        raise DomainError("the curve is defined for s > -1/2")
    n = profile.n
    m = n + 2
    w = 2.0 * s + 1.0
    p = Point(0.5 * np.log(w), np.zeros(n), 0.0)
    vel = np.zeros(m)
    vel[0] = 1.0 / w
    acc = np.zeros(m)
    acc[0] = -2.0 / w ** 2
    grad = np.zeros(m)
    grad[0] = 1.0
    jet = ScalarJet2(p.t, grad, np.zeros((m, m)))
    gamma_hat = conformal_christoffel_at(profile, p, jet)
    residual = acc + np.einsum("kij,i,j->k", gamma_hat, vel, vel)
    return float(np.max(np.abs(residual)))
