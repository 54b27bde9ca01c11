"""Independent oracles the tests check the library against: finite
differences of the metric, of the Christoffel symbols and of a map,
dense-tensor products, symmetries and traces, closed forms the library
itself has no use for (the Minkowski dilation and inversion, the chart
inverses), and the loops the library's whole-array code replaced (the
flow branch by branch, the orbit step as two expressions)."""

import numpy as np

from cwgeom.core import (DOMAIN_TOL, MEASURE_TOL, PARAM_TOL, BetaSolution, SymmetricProfile,
                         beta_in_eigenbasis, coords, join)
from cwgeom.curvature import christoffel_at, metric_at
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
                                  step: float = 1e-5) -> np.ndarray:
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


def riemann_finite_difference(profile: SymmetricProfile, point,
                              step: float = 1e-5) -> np.ndarray:
    """Brute-force (0,4) curvature from central differences of
    christoffel_at:
    R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im}G^m_{jk} - G^l_{jm}G^m_{ik},
    lowered so that R[i,j,k,l] = g(R(d_i, d_j) d_l, d_k)."""
    # row i of p0 +- E is the point moved along coordinate i
    p0, E = coords(point, profile.n), step * np.eye(profile.n + 2)
    dgam = (christoffel_at(profile, p0 + E) - christoffel_at(profile, p0 - E)) / (2 * step)
    # dgam[i, l, j, k] = d_i Gamma^l_{jk}
    G = christoffel_at(profile, p0)
    Rup = (np.einsum("iljk->ijkl", dgam) - np.einsum("jlik->ijkl", dgam)
           + np.einsum("lim,mjk->ijkl", G, G) - np.einsum("ljm,mik->ijkl", G, G))
    # Rup[i, j, k, l] = (R(d_i, d_j) d_k)^l
    return np.einsum("ijlm,km->ijkl", Rup, metric_at(profile, p0))


def kulkarni_nomizu(A, B) -> np.ndarray:
    """Kulkarni-Nomizu product of symmetric bilinear forms, (..., m, m)
    arrays broadcast against each other: shape (..., m, m, m, m)."""
    return (np.einsum("...xz,...yv->...xyzv", A, B) + np.einsum("...xz,...yv->...xyzv", B, A)
            - np.einsum("...xv,...yz->...xyzv", A, B) - np.einsum("...xv,...yz->...xyzv", B, A))


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


def minkowski_inversion(n: int) -> SmoothMap:
    """(u, y, z) -> (1/(4u), y/(2u), -z - |y|^2/(2u)): the isometry
    (t, x, v) -> (-t, x, -v) seen through the Minkowski map; satisfies
    eta^* g0 = g0 / (4u^2) on {u > 0}, an involution of {u > 0}."""

    def fwd(q):
        u, y, z = q[..., 0], q[..., 1:-1], q[..., -1]
        return join(0.25 / u, y / (2 * u)[..., None], -z - 0.5 * np.sum(y * y, axis=-1) / u)

    def jac(q):
        u, y = q[..., 0], q[..., 1:-1]
        J = np.zeros(q.shape + (n + 2,))
        J[..., 0, 0] = -0.25 / u ** 2
        J[..., 1:-1, 0] = -y / (2 * u ** 2)[..., None]
        J[..., 1:-1, 1:-1] = np.eye(n) / (2 * u)[..., None, None]
        J[..., -1, 0] = 0.5 * np.sum(y * y, axis=-1) / u ** 2
        J[..., -1, 1:-1] = -y / u[..., None]
        J[..., -1, -1] = -1.0
        return J

    return SmoothMap(n, forward=fwd, jacobian=jac, in_domain=lambda q: q[..., 0] > DOMAIN_TOL)


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


def box_minus_holes_nonempty(box, holes) -> bool:
    """Whether the box ((lo, hi), ...) minus the union of the holes, boxes
    of the same form, has positive measure, by recursive splitting along
    hole faces; an overlap no wider than MEASURE_TOL is empty.  Reference
    for quotients._positive_measure."""
    def intersect(a, b):
        out = tuple((max(alo, blo), min(ahi, bhi)) for (alo, ahi), (blo, bhi) in zip(a, b))
        return None if any(hi - lo <= MEASURE_TOL for lo, hi in out) else out

    live = [h for h in (intersect(box, h) for h in holes) if h is not None]
    if not live:
        return True
    # split the box along one face of the first hole that cuts its interior
    for axis, ((blo, bhi), (hlo, hhi)) in enumerate(zip(box, live[0])):
        for cut in (hlo, hhi):
            if blo + MEASURE_TOL < cut < bhi - MEASURE_TOL:
                left = box[:axis] + ((blo, cut),) + box[axis + 1:]
                right = box[:axis] + ((cut, bhi),) + box[axis + 1:]
                return (box_minus_holes_nonempty(left, live)
                        or box_minus_holes_nonempty(right, live))
    # no face cuts the interior, so the hole covers the box on every axis
    return False


def block_determinant(eigenvalue: float, s: float, c: float) -> float:
    """Determinant of the scalar (d = 1) conjugation block at A = 1,
    [[a ch - 1, a sh], [a d0, a ch - 1]] with a = e^s and (ch, sh, d0) the
    profile's own flow over c, read by beta_in_eigenbasis, which vanishes
    exactly at the resonance s = +-lambda c for positive eigenvalues."""
    _, flow = beta_in_eigenbasis(BetaSolution(SymmetricProfile([[eigenvalue]])), c)
    ch, sh, d0 = (float(part[0]) for part in flow)
    a = np.exp(s)
    return float(np.linalg.det([[a * ch - 1, a * sh], [a * d0, a * ch - 1]]))


def bit_equal(a, b) -> bool:
    """Whether two float arrays are np.array_equal and agree in the sign of
    every zero as well: the same floats bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def branch_loop_flow(profile: SymmetricProfile, t):
    """Reference for SymmetricProfile.flow: one branch of eigenvector
    columns at a time, negative then positive, each writing its slice of
    (ch, sh, d0) over (1, t, 0) of the zero columns."""
    lam = profile.eigenvalues
    root = np.sqrt(np.abs(lam))
    neg = slice(0, int(np.sum(lam < 0)))
    pos = slice(profile.n - int(np.sum(lam > 0)), profile.n)
    t = np.asarray(t, dtype=float)[..., None]
    d0 = np.zeros(t.shape[:-1] + (profile.n,))
    ch = d0 + 1.0
    sh = ch * t
    for cols, even, odd, sign in ((neg, np.cos, np.sin, -1.0), (pos, np.cosh, np.sinh, 1.0)):
        if cols.start < cols.stop:
            r = root[cols]
            rt = t * r
            ch[..., cols] = even(rt)
            o = odd(rt)
            sh[..., cols] = o / r
            d0[..., cols] = sign * r * o
    return ch, sh, d0


def recurrence_orbit_sequence(gamma: Homothety, phi: Homothety, K: int) -> np.ndarray:
    """Reference for orbit_obstruction_sequence's sequence: the recurrence
    on the eigenbasis data of beta stepped as two expressions, (ch y + sh
    y', d0 y + ch y') M, on branch_loop_flow, with <beta', beta> as a
    (1, n) x (n, 1) product per row."""
    prof = phi.profile
    Q = prof.eigenvectors
    ch, sh, d0 = branch_loop_flow(prof, gamma.c)
    M = np.exp(-gamma.s) * (Q.T @ gamma.A @ Q)
    y = np.empty((K + 1, 2, prof.n))
    b = np.empty(K)
    y[0], bk = (phi.beta.beta0 @ Q, phi.beta.beta1 @ Q), phi.b
    y0, y1 = y[0]
    for k in range(K):
        y0, y1 = np.matmul((ch * y0 + sh * y1, d0 * y0 + ch * y1), M, out=y[k + 1])
        bk = b[k] = np.exp(-2 * gamma.s) * bk
    c = phi.c + (phi.eps - 1) * gamma.c * np.arange(1, K + 1)
    beta = y[1:] @ Q.T
    dot = (beta[:, 1, None, :] @ beta[:, 0, :, None])[:, 0, 0]
    return np.column_stack((c, beta[:, 0], phi.eps * (b - dot / 2)))
