"""Metric, connection and curvature of g_S, in closed form: the metric,
Christoffel symbols, Riemann, Ricci, scalar, Schouten, Weyl and Cotton
tensors.

Everything here works in the coordinate frame (d_t, d_1..d_n, d_v) on
R^{n+2}, m = n + 2.  Bilinear forms are (..., m, m) arrays, with one
leading index per point where a function takes an (..., m) array of
points.  The curvature and Weyl tensors of the model are M kn (dt)^2 up
to sign for an n x n block M, so they are stored as that block
(CurvatureTensor4; 4 n^2 of their (n+2)^4 entries are nonzero, and its
dense (m, m, m, m) array is built on request).  The sign conventions:

    R(X,Y,Z,V) = g(R(X,Y)V, Z),
    (A kn B)(X,Y,Z,V) = A(X,Z)B(Y,V) + B(X,Z)A(Y,V)
                        - A(X,V)B(Y,Z) - B(X,V)A(Y,Z).

Under these the model curvature is R = -S kn (dt)^2 and the Weyl tensor
is W = (tr(S)/n I - S) kn (dt)^2.
"""

from __future__ import annotations

import numpy as np

from .core import SymmetricProfile, coords

# numpy mallocs its per-thread state (46 KB, mostly the big-integer
# scratch of its float printer) the first time a thread needs it, e.g. on
# the first negation of a large temporary array.  Under glibc, if that
# happens while a dense (n+2)^4 tensor sits at the top of the heap, the
# block lands just above it; once the tensor is freed its 10 MB at n = 32
# can be neither trimmed nor reused for the next one, and peak memory
# grows by a whole tensor.  Printing one float at import allocates the
# block while the heap holds nothing large.
np.format_float_positional(0.5)


class CurvatureTensor4:
    """The (0,4) tensor sign * (M kn (dt)^2) of a symmetric n x n block M.

    Its nonzero entries are, for i, j in 1..n, R[i,0,j,0] = R[0,i,0,j] =
    sign * M_ij and R[i,0,0,j] = R[0,i,j,0] = -sign * M_ij.  `components`,
    the dense array, is built on each read and never kept, so the tensor
    holds only its block; it is the dense Kulkarni-Nomizu product times the
    sign, signed zeros included.
    """

    def __init__(self, block, sign: float = 1.0):
        self.block = np.asarray(block, dtype=float)
        self.n = self.block.shape[0]
        self.sign = float(sign)

    @property
    def components(self) -> np.ndarray:
        # the Kulkarni-Nomizu product, written into a zeroed buffer, so its
        # zeros are +0.0 and its entries M_ij + 0.0 and 0.0 - M_ij
        M = self.block
        x = slice(1, self.n + 1)
        R = np.zeros((self.n + 2,) * 4)
        R[x, 0, x, 0] = R[0, x, 0, x] = M + 0.0
        R[x, 0, 0, x] = R[0, x, x, 0] = 0.0 - M
        R *= self.sign
        return R

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.block)))


def dt_squared(n: int) -> np.ndarray:
    """(dt)^2 as a bilinear form."""
    m = n + 2
    c = np.zeros((m, m))
    c[0, 0] = 1.0
    return c


def metric_at(profile: SymmetricProfile, points) -> np.ndarray:
    """Gram matrices of g_S = 2 dv dt + (x, Sx)(dt)^2 + dx^2 at an
    (..., n+2) array of points: shape (..., n+2, n+2)."""
    n = profile.n
    x = coords(points, n)[..., 1:-1]
    g = np.zeros(x.shape[:-1] + (n + 2, n + 2))
    g[..., 0, 0] = np.sum((x @ profile.S) * x, axis=-1)
    g[..., 0, -1] = g[..., -1, 0] = 1.0
    g[..., 1:-1, 1:-1] = np.eye(n)
    return g


def christoffel_at(profile: SymmetricProfile, point) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] = Gamma^k_{ij} of g_S at an
    (..., n+2) array of points.

    Nonzero symbols: Gamma^v_{ti} = Gamma^v_{it} = (Sx)_i and
    Gamma^j_{tt} = -(Sx)_j; everything else vanishes (in particular
    Gamma^v_{tt} = 0, as the Koszul formula confirms since the tt-entry
    of g depends on x only).
    """
    m = profile.n + 2
    Sx = coords(point, profile.n)[..., 1:-1] @ profile.S
    gamma = np.zeros(Sx.shape[:-1] + (m, m, m))
    gamma[..., -1, 0, 1:-1] = Sx
    gamma[..., -1, 1:-1, 0] = Sx
    gamma[..., 1:-1, 0, 0] = -Sx
    return gamma


def riemann(profile: SymmetricProfile) -> CurvatureTensor4:
    """R = -S kn (dt)^2, constant over the space."""
    return CurvatureTensor4(profile.S, sign=-1.0)


def ricci(profile: SymmetricProfile) -> np.ndarray:
    """Ric = -tr(S) (dt)^2."""
    return -float(np.trace(profile.S)) * dt_squared(profile.n)


def scalar(profile: SymmetricProfile) -> float:
    """Scalar curvature, identically zero."""
    return 0.0


def schouten(profile: SymmetricProfile) -> np.ndarray:
    """P = Ric/(m-2) since the scalar curvature vanishes."""
    return (1.0 / profile.n) * ricci(profile)


def weyl(profile: SymmetricProfile) -> CurvatureTensor4:
    """W = (tr(S)/n I - S) kn (dt)^2."""
    n = profile.n
    M = (np.trace(profile.S) / n) * np.eye(n) - profile.S
    return CurvatureTensor4(M)


def cotton(profile: SymmetricProfile) -> np.ndarray:
    """Cotton tensor C_{ijk} = (nabla_i P)_{jk} - (nabla_j P)_{ik}.

    P is constant in coordinates and has only a tt-entry, while no
    Christoffel symbol has an upper t index, so C vanishes identically;
    the formula is still evaluated, at a fixed point, not short-circuited.
    """
    P = schouten(profile)
    gamma = christoffel_at(profile, np.concatenate(([0.3], np.full(profile.n, 0.7), [-0.2])))
    # coordinate derivative of the constant P is zero
    nablaP = -np.einsum("lij,lk->ijk", gamma, P) - np.einsum("lik,jl->ijk", gamma, P)
    return nablaP - np.transpose(nablaP, (1, 0, 2))
