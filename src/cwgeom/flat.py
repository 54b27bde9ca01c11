"""Conformally flat machinery, in flat coordinates (u, y^1..y^n, z) with
the Minkowski metric g0 = 2 du dz + dy^2.  Both flat charts are one warped
chart (t, x, v) -> (u(t), x/rho, v + |x|^2 rho'/(2 rho)), rho > 0 solving
rho'' = lam rho and u' = rho^-2, which pulls g0 back to rho^-2 g_S for
S = lam I: rho = e^-t maps the real type onto {u > 0}, rho = cos t the
imaginary type on |t| < pi/2.  `conformal_defect` is the one check of a
SmoothMap's F^* g = lambda g, for the charts and for group elements
alike.  The closed-form Riccati blow-up rules out a global flat rescaling
in the imaginary case.

Maps, metrics and factors act on (..., n+2) arrays of points, one per row,
so a check over N points is one evaluation; metrics are Gram arrays
(..., n+2, n+2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DOMAIN_TOL, coords, join, require_finite
from .errors import DomainError


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map of R^{n+2} given by closed-form evaluators on (..., n+2)
    arrays of points: `forward` to (..., n+2), its analytic `jacobian` to
    (..., n+2, n+2) and `in_domain` to (...) booleans.  Calling it and
    `jacobian_at` take such an array and check `in_domain`; the evaluators
    do not."""

    n: int
    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray] = lambda a: True

    def _require(self, p) -> np.ndarray:
        a = coords(p, self.n)
        inside = self.in_domain(a)
        if not np.all(inside):
            outside = ~np.broadcast_to(inside, a.shape[:-1])
            raise DomainError(f"point outside the map's domain: {a[outside][0]}")
        return a

    def __call__(self, p):
        return require_finite(self.forward(self._require(p)))

    def jacobian_at(self, p) -> np.ndarray:
        return self.jacobian(self._require(p))


def minkowski_metric(n: int) -> np.ndarray:
    """Gram matrix of g0 = 2 du dz + dy^2 in the (u, y, z) frame."""
    m = n + 2
    g = np.zeros((m, m))
    g[0, -1] = g[-1, 0] = 1.0
    g[1:-1, 1:-1] = np.eye(n)
    return g


def _warped_chart(n: int, lam: float, rho, u, in_domain=lambda a: True) -> SmoothMap:
    """The warped chart of S = lam I (see the module docstring); rho(t)
    gives (rho, rho')."""

    def fwd(a):
        t, x, v = a[..., 0], a[..., 1:-1], a[..., -1]
        r, dr = rho(t)
        return join(u(t), x / r[..., None], v + 0.5 * np.sum(x * x, axis=-1) * dr / r)

    def jac(a):
        t, x = a[..., 0], a[..., 1:-1]
        r, dr = rho(t)
        w = dr / r  # (log rho)', whose derivative is lam - w^2
        J = np.zeros(a.shape + (n + 2,))
        J[..., 0, 0] = (1.0 / r) ** 2
        J[..., 1:-1, 0] = (-w / r)[..., None] * x
        J[..., 1:-1, 1:-1] = np.eye(n) / r[..., None, None]
        J[..., -1, 0] = 0.5 * np.sum(x * x, axis=-1) * (lam - w * w)
        J[..., -1, 1:-1] = w[..., None] * x
        J[..., -1, -1] = 1.0
        return J

    return SmoothMap(n, forward=fwd, jacobian=jac, in_domain=in_domain)


def minkowski_map(n: int) -> SmoothMap:
    """The conformal diffeomorphism of the real-type model space onto the
    half-space {u > 0}: u = e^{2t}/2, y = e^t x, z = v - |x|^2/2, the
    warped chart with rho = e^-t."""
    return _warped_chart(n, 1.0, lambda t: (np.exp(-t), -np.exp(-t)),
                         lambda t: 0.5 * np.exp(2 * t))


def imaginary_local_map(n: int) -> SmoothMap:
    """The local conformal map of the imaginary-type model on the strip
    |t| < pi/2: u = tan t, y = x/cos t, z = v - |x|^2 tan(t)/2, the warped
    chart with rho = cos t."""
    return _warped_chart(n, -1.0, lambda t: (np.cos(t), -np.sin(t)), np.tan,
                         in_domain=lambda a: np.abs(a[..., 0]) < np.pi / 2 - DOMAIN_TOL)


@np.errstate(over="ignore", invalid="ignore")
def conformal_defect(mapping: SmoothMap, target_metric: Callable[[np.ndarray], np.ndarray],
                     source_metric: Callable[[np.ndarray], np.ndarray],
                     factor: Callable[[np.ndarray], np.ndarray], points):
    """max over the points p of |F^* g_target - factor(p) g_source|, the
    residual of F^* g_target = factor * g_source, on Gram arrays, at an
    (N, n+2) array, one (n+2,) point or a list of points in one call: the
    metrics take the array to (..., N, n+2, n+2) or one Gram array,
    `factor` to (..., N) or a number.  A float, or one max per row where
    the mapping leads with batch axes, as a (B, 1) batch of group
    elements does; overflow raises, as require_finite, with no warning."""
    a = np.atleast_2d(coords(points, mapping.n))
    J = mapping.jacobian_at(a)  # checks the points once
    pulled = np.swapaxes(J, -1, -2) @ target_metric(require_finite(mapping.forward(a))) @ J
    lam = np.asarray(factor(a))[..., None, None]
    worst = require_finite(np.abs(pulled - lam * source_metric(a)).max((-3, -2, -1), initial=0.0))
    return float(worst) if worst.ndim == 0 else worst


def flatness_blowup_demo(epsilon: int, y0: float = 0.0, tmax: float = 10.0):
    """The imaginary-type obstruction to a global flat rescaling, epsilon
    = -1: y' = y^2 + 1 with y(0) = y0 has the solution y = tan(t +
    arctan y0), which blows up in finite time, showing that no globally
    defined rescaling exists.  The reported blow-up time is the first
    t >= 0 with |y(t)| >= 1e8, or None when that lies beyond tmax.  (The
    real type has the global chart minkowski_map instead.)  Any other
    epsilon is a ValueError."""
    if epsilon != -1:
        raise ValueError("epsilon must be -1, the imaginary type")
    escape = 1e8
    # y increases on [0, pi/2 - arctan y0), so from |y0| < escape it
    # first reaches |y| = escape at y = +escape
    t = 0.0 if abs(y0) >= escape else float(np.arctan(escape) - np.arctan(y0))
    blowup = t if t <= tmax else None
    return {"blowup_t": blowup, "blowup": blowup is not None}
