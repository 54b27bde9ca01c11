"""Independent oracles the tests check the library against: finite
differences of the metric and of a map, dense-tensor symmetries and
traces, and closed forms the library itself has no use for."""

import numpy as np

from cwgeom.core import PARAM_TOL, SymmetricProfile, coords, join
from cwgeom.curvature import FD_STEP, metric_at
from cwgeom.flat import SmoothMap
from cwgeom.group import Homothety, element_distance, identity


def jacobian_finite_difference(forward, p) -> np.ndarray:
    """Central finite differences, step 1e-6, of a map's `forward` at a
    an (..., m) array of points: shape (..., m, m)."""
    step = 1e-6
    a = coords(p)
    # row j of a +- e is the point moved along coordinate j
    a, e = a[..., None, :], step * np.eye(a.shape[-1])
    return np.swapaxes(forward(a + e) - forward(a - e), -1, -2) / (2 * step)


def christoffel_finite_difference(profile: SymmetricProfile, point,
                                  step: float = FD_STEP) -> np.ndarray:
    """Christoffel symbols from the Koszul formula with central-difference
    metric derivatives.  Independent oracle for christoffel_at."""
    # row k of p0 +- E is the point moved along coordinate k
    p0, E = coords(point, profile.n), step * np.eye(profile.n + 2)
    dg = (metric_at(profile, p0 + E) - metric_at(profile, p0 - E)) / (2 * step)
    # dg[k, i, j] = d_k g_ij
    ginv = np.linalg.inv(metric_at(profile, p0))
    first = 0.5 * (np.einsum("jil->lij", dg) + np.einsum("ijl->lij", dg)
                   - np.einsum("lij->lij", dg))
    return np.einsum("kl,lij->kij", ginv, first)


def riemann_symmetry_defect(R: np.ndarray) -> float:
    """Max violation of the four Riemann symmetries of a dense (0,4) array
    (antisymmetry in the first and last pairs, pair exchange, first
    Bianchi)."""
    return max(
        float(np.max(np.abs(R + np.swapaxes(R, 0, 1)))),
        float(np.max(np.abs(R + np.swapaxes(R, 2, 3)))),
        float(np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))),
        float(np.max(np.abs(R + np.transpose(R, (1, 2, 0, 3))
                            + np.transpose(R, (2, 0, 1, 3))))),
    )


def trace_with_metric(T: np.ndarray, g: np.ndarray, slots=(0, 2)) -> np.ndarray:
    """Single trace of a dense (0,4) array over the given slot pair."""
    order = [a for a in range(4) if a not in slots]
    moved = np.transpose(T, list(slots) + order)
    return np.einsum("ab,ab...->...", np.linalg.inv(g), moved)


def x_block_form(n: int, M) -> np.ndarray:
    """A symmetric n x n matrix as the form M_ij dx^i dx^j."""
    m = n + 2
    c = np.zeros((m, m))
    c[1:-1, 1:-1] = np.asarray(M, dtype=float)
    return c


def minkowski_dilation(n: int, c: float) -> SmoothMap:
    """(u, y, z) -> (e^{2c} u, e^c y, z): the t-translation by c seen
    through the Minkowski map."""
    d = np.array([np.exp(2 * c)] + [np.exp(c)] * n + [1.0])
    return SmoothMap(n, forward=lambda a: a * d,
                     jacobian=lambda a: np.broadcast_to(np.diag(d), a.shape + d.shape))


def minkowski_map_inverse(q) -> np.ndarray:
    """The inverse of flat.minkowski_map on {u > 0}, at an (..., n+2)
    array of points: t = ln(2u)/2, x = e^-t y, v = z + |x|^2/2."""
    q = coords(q)
    t = 0.5 * np.log(2 * q[..., 0])
    x = np.exp(-t)[..., None] * q[..., 1:-1]
    return join(t, x, q[..., -1] + 0.5 * np.sum(x * x, axis=-1))


def imaginary_local_map_inverse(q) -> np.ndarray:
    """The inverse of flat.imaginary_local_map, at an (..., n+2) array of
    points: t = arctan u, x = y cos t, v = z + |x|^2 u/2."""
    q = coords(q)
    u = q[..., 0]
    t = np.arctan(u)
    x = np.cos(t)[..., None] * q[..., 1:-1]
    return join(t, x, q[..., -1] + 0.5 * np.sum(x * x, axis=-1) * u)


def is_identity(phi: Homothety, tol: float = PARAM_TOL) -> bool:
    return element_distance(phi, identity(phi.profile)) <= tol
