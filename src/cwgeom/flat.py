"""Conformally flat machinery, in flat coordinates (u, y^1..y^n, z) with
the Minkowski metric g0 = 2 du dz + dy^2.  Both flat charts are one warped
chart (t, x, v) -> (u(t), x/rho, v + |x|^2 rho'/(2 rho)), rho > 0 solving
rho'' = lam rho and u' = rho^-2, which pulls g0 back to rho^-2 g_S for
S = lam I: rho = e^-t maps the real type onto {u > 0}, rho = cos t the
imaginary type on |t| < pi/2.  `conformal_defect` is the one check of
F^* g = lambda g.  The closed-form Riccati blow-up rules out a global flat
rescaling in the imaginary case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .core import Point, SymmetricProfile
from .curvature import ScalarJet2, SymBilinear, conformal_christoffel_at
from .errors import DomainError

FD_STEP = 1e-6
DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map of R^{n+2} given by closed-form evaluators.  Calling
    it and `jacobian_at` check `in_domain`; the evaluators do not."""

    n: int
    forward: Callable[[Point], Point]
    jacobian: Optional[Callable[[Point], np.ndarray]] = None
    inverse: Optional[Callable[[Point], Point]] = None
    in_domain: Callable[[Point], bool] = lambda p: True

    def _require(self, p: Point) -> None:
        if not self.in_domain(p):
            raise DomainError(f"point outside the map's domain: {p}")

    def __call__(self, p: Point) -> Point:
        self._require(p)
        return self.forward(p)

    def jacobian_at(self, p: Point) -> np.ndarray:
        """Analytic Jacobian if present, else central finite differences."""
        self._require(p)
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
    """outer after inner, on the points of inner's domain that inner maps
    into outer's, with chained Jacobians and inverses if present."""
    inv = jac = None
    if outer.inverse is not None and inner.inverse is not None:
        def inv(q, _o=outer, _i=inner):
            return _i.inverse(_o.inverse(q))
    if outer.jacobian is not None and inner.jacobian is not None:
        def jac(p, _o=outer, _i=inner):
            return _o.jacobian(_i.forward(p)) @ _i.jacobian(p)
    return SmoothMap(outer.n, forward=lambda p: outer.forward(inner.forward(p)),
                     jacobian=jac, inverse=inv,
                     in_domain=lambda p: inner.in_domain(p)
                     and outer.in_domain(inner.forward(p)))


def minkowski_metric(n: int) -> SymBilinear:
    """Gram matrix of g0 = 2 du dz + dy^2 in the (u, y, z) frame."""
    m = n + 2
    g = np.zeros((m, m))
    g[0, -1] = g[-1, 0] = 1.0
    g[1:-1, 1:-1] = np.eye(n)
    return SymBilinear(n, g)


def _half_space(q: Point) -> bool:
    return q.t > DOMAIN_TOL


def _warped_chart(n: int, lam: float, rho, u, u_inv, in_domain=lambda p: True,
                  image=lambda q: True) -> SmoothMap:
    """The warped chart of S = lam I (see the module docstring); rho(t)
    gives (rho, rho'), and `image` is the domain of the inverse."""

    def fwd(p: Point) -> Point:
        r, dr = rho(p.t)
        return Point(u(p.t), p.x / r, p.v + 0.5 * float(p.x @ p.x) * dr / r)

    def jac(p: Point) -> np.ndarray:
        r, dr = rho(p.t)
        w = dr / r  # (log rho)', whose derivative is lam - w^2
        J = np.zeros((n + 2, n + 2))
        J[0, 0] = (1.0 / r) ** 2
        J[1:-1, 0] = (-w / r) * p.x
        J[1:-1, 1:-1] = np.eye(n) / r
        J[-1, 0] = 0.5 * float(p.x @ p.x) * (lam - w * w)
        J[-1, 1:-1] = w * p.x
        J[-1, -1] = 1.0
        return J

    def inv(q: Point) -> Point:
        t = u_inv(q.t)
        r, dr = rho(t)
        x = r * q.x
        return Point(t, x, q.v - 0.5 * float(x @ x) * dr / r)

    return SmoothMap(n, forward=fwd, jacobian=jac, in_domain=in_domain,
                     inverse=SmoothMap(n, forward=inv, in_domain=image))


def minkowski_map(n: int) -> SmoothMap:
    """The conformal diffeomorphism of the real-type model space onto the
    half-space {u > 0}: u = e^{2t}/2, y = e^t x, z = v - |x|^2/2, the
    warped chart with rho = e^-t."""
    return _warped_chart(n, 1.0, lambda t: (np.exp(-t), -np.exp(-t)),
                         lambda t: 0.5 * np.exp(2 * t), lambda u: 0.5 * np.log(2 * u),
                         image=_half_space)


def imaginary_local_map(n: int) -> SmoothMap:
    """The local conformal map of the imaginary-type model on the strip
    |t| < pi/2: u = tan t, y = x/cos t, z = v - |x|^2 tan(t)/2, the warped
    chart with rho = cos t."""
    return _warped_chart(n, -1.0, lambda t: (np.cos(t), -np.sin(t)), np.tan, np.arctan,
                         in_domain=lambda p: abs(p.t) < np.pi / 2 - DOMAIN_TOL)


def minkowski_dilation(n: int, c: float) -> SmoothMap:
    """(u, y, z) -> (e^{2c} u, e^c y, z): the t-translation by c seen
    through the Minkowski map."""
    D = np.diag([np.exp(2 * c)] + [np.exp(c)] * n + [1.0])
    return SmoothMap(n, forward=lambda p: Point.from_array(D @ p.as_array()),
                     jacobian=lambda p: D,
                     inverse=lambda q: Point.from_array(np.linalg.solve(D, q.as_array())))


def minkowski_inversion(n: int) -> SmoothMap:
    """(u, y, z) -> (1/(4u), y/(2u), -z - |y|^2/(2u)): the isometry
    (t, x, v) -> (-t, x, -v) seen through the Minkowski map; satisfies
    eta^* g0 = g0 / (4u^2) on {u > 0}.  It is its own inverse."""

    def fwd(q: Point) -> Point:
        u = q.t
        return Point(0.25 / u, q.x / (2 * u), -q.v - 0.5 * float(q.x @ q.x) / u)

    def jac(q: Point) -> np.ndarray:
        u = q.t
        J = np.zeros((n + 2, n + 2))
        J[0, 0] = -0.25 / u ** 2
        J[1:-1, 0] = -q.x / (2 * u ** 2)
        J[1:-1, 1:-1] = np.eye(n) / (2 * u)
        J[-1, 0] = 0.5 * float(q.x @ q.x) / u ** 2
        J[-1, 1:-1] = -q.x / u
        J[-1, -1] = -1.0
        return J

    eta = SmoothMap(n, forward=fwd, jacobian=jac, in_domain=_half_space)
    return replace(eta, inverse=eta)


def _pullback(mapping: SmoothMap, gram: Callable[[Point], np.ndarray], p: Point):
    """The Gram array J^T G(phi(p)) J of phi^* g at p."""
    J = mapping.jacobian_at(p)
    return J.T @ gram(mapping.forward(p)) @ J


def pullback_metric(mapping: SmoothMap, target_metric: Callable[[Point], SymBilinear],
                    p: Point) -> SymBilinear:
    """(phi^* g)|_p = J^T g|_{phi(p)} J with the map's Jacobian."""
    return SymBilinear(mapping.n, _pullback(mapping, lambda q: target_metric(q).components, p))


def conformal_defect(mapping: SmoothMap, target_metric: Callable[[Point], np.ndarray],
                     source_metric: Callable[[Point], np.ndarray],
                     factor: Callable[[Point], float], points: Iterable[Point]) -> float:
    """max over the points p of |phi^* g_target - factor(p) g_source|, the
    residual of phi^* g_target = factor * g_source, on Gram arrays."""
    return float(np.max([np.max(np.abs(_pullback(mapping, target_metric, p)
                                       - factor(p) * source_metric(p)))
                         for p in points], initial=0.0))


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
