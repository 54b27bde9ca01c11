"""Metric, connection and curvature machinery.

Everything here works in the coordinate frame (d_t, d_1..d_n, d_v) on
R^{n+2}, m = n + 2.  Bilinear forms are stored dense.  The curvature and
Weyl tensors of the model are M kn (dt)^2 up to sign for an n x n block M,
so they are stored as that block (4 n^2 of their (n+2)^4 entries are
nonzero); every other (0,4) tensor, such as the finite-difference
oracles, is stored dense.  The sign conventions:

    R(X,Y,Z,V) = g(R(X,Y)V, Z),
    (A kn B)(X,Y,Z,V) = A(X,Z)B(Y,V) + B(X,Z)A(Y,V)
                        - A(X,V)B(Y,Z) - B(X,V)A(Y,Z).

Under these the model curvature is R = -S kn (dt)^2 and the Weyl tensor
is W = (tr(S)/n I - S) kn (dt)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Point, SymmetricProfile, coords
from .errors import IncompatibleProfileError, OverflowingValueError

FD_STEP = 1e-5

# numpy mallocs its per-thread state (46 KB, mostly the big-integer
# scratch of its float printer) the first time a thread needs it, e.g. on
# the first negation of a large temporary array.  Under glibc, if that
# happens while a dense (n+2)^4 tensor sits at the top of the heap, the
# block lands just above it; once the tensor is freed its 10 MB at n = 32
# can be neither trimmed nor reused for the next one, and peak memory
# grows by a whole tensor.  Printing one float at import allocates the
# block while the heap holds nothing large.
np.format_float_positional(0.5)


@dataclass(frozen=True)
class SymBilinear:
    """Dense symmetric bilinear form on R^{n+2}; a form whose symmetrised
    components are not finite is rejected with an OverflowingValueError."""

    n: int
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        m = self.n + 2
        if c.shape != (m, m):
            raise ValueError(f"expected shape {(m, m)}, got {c.shape}")
        c = 0.5 * (c + c.T)
        # NaN propagates through min and max, and so does an infinity
        if not (np.isfinite(c.min()) and np.isfinite(c.max())):
            raise OverflowingValueError("bilinear form has non-finite components")
        object.__setattr__(self, "components", c)

    def __add__(self, other):
        return SymBilinear(self.n, self.components + other.components)

    def __sub__(self, other):
        return SymBilinear(self.n, self.components - other.components)

    def __mul__(self, scalar):
        return SymBilinear(self.n, scalar * self.components)

    __rmul__ = __mul__


class CurvatureTensor4:
    """(0,4) tensor with the Riemann symmetries, dense or in block form.

    A block tensor holds a symmetric n x n block M and a sign +-1 and is
    R = sign * (M kn (dt)^2).  Its nonzero entries are, for i, j in 1..n,
    R[i,0,j,0] = R[0,i,0,j] = sign * M_ij and R[i,0,0,j] = R[0,i,j,0] =
    -sign * M_ij.  `components`, the dense array, is built on first request
    and cached; it is the dense Kulkarni-Nomizu product times the sign,
    signed zeros included.  A dense tensor has no block (`block` is None).
    Arithmetic of two block tensors stays in block form; anything else is
    dense.
    """

    def __init__(self, n: int, components=None, *, block=None, sign: float = 1.0):
        self.n = n
        self.sign = float(sign)
        if block is None:
            self.block = None
            c = np.asarray(components, dtype=float)
            m = n + 2
            if c.shape != (m, m, m, m):
                raise ValueError(f"expected shape {(m,) * 4}, got {c.shape}")
            self.components = c
        else:
            self.block = np.asarray(block, dtype=float)
            if self.block.shape != (n, n):
                raise ValueError(f"expected block shape {(n, n)}, got {self.block.shape}")

    @cached_property
    def components(self) -> np.ndarray:
        # einsum fills the Kulkarni-Nomizu product into a zeroed buffer, so
        # its zeros are +0.0 and its entries M_ij + 0.0 and 0.0 - M_ij
        M = self.block
        x = slice(1, self.n + 1)
        R = np.zeros((self.n + 2,) * 4)
        R[x, 0, x, 0] = R[0, x, 0, x] = M + 0.0
        R[x, 0, 0, x] = R[0, x, x, 0] = 0.0 - M
        R *= self.sign
        return R

    def symmetry_defect(self) -> float:
        """Max violation of the four Riemann symmetries (antisymmetry in the
        first and last pairs, pair exchange, first Bianchi)."""
        if self.block is not None:
            # the antisymmetries hold exactly; pair exchange and Bianchi
            # reduce to the symmetry of M
            return float(np.max(np.abs(self.block - self.block.T)))
        R = self.components
        d = max(
            float(np.max(np.abs(R + np.swapaxes(R, 0, 1)))),
            float(np.max(np.abs(R + np.swapaxes(R, 2, 3)))),
            float(np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))),
            float(np.max(np.abs(R + np.transpose(R, (1, 2, 0, 3))
                                + np.transpose(R, (2, 0, 1, 3))))),
        )
        return d

    def _combine(self, other, op):
        if self.block is not None and other.block is not None:
            return CurvatureTensor4(self.n, block=op(self.sign * self.block,
                                                     other.sign * other.block))
        return CurvatureTensor4(self.n, op(self.components, other.components))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        if self.block is not None:
            return CurvatureTensor4(self.n, block=(scalar * self.sign) * self.block)
        return CurvatureTensor4(self.n, scalar * self.components)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components if self.block is None
                                    else self.block)))


@dataclass(frozen=True)
class ScalarJet2:
    """Coordinate 2-jet (value, gradient, hessian) of a function at a point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gradient, dtype=float))
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (g.size, g.size):
            raise ValueError("hessian shape does not match gradient")
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "hessian", 0.5 * (h + h.T))


def dt_squared(n: int) -> SymBilinear:
    """(dt)^2 as a bilinear form."""
    m = n + 2
    c = np.zeros((m, m))
    c[0, 0] = 1.0
    return SymBilinear(n, c)


def x_block_form(n: int, M) -> SymBilinear:
    """A symmetric n x n matrix as the form M_ij dx^i dx^j."""
    m = n + 2
    c = np.zeros((m, m))
    c[1:-1, 1:-1] = np.asarray(M, dtype=float)
    return SymBilinear(n, c)


def metric_gram(profile: SymmetricProfile, a) -> np.ndarray:
    """Gram matrices of g_S = 2 dv dt + (x, Sx)(dt)^2 + dx^2 at an
    (..., n+2) array of points: shape (..., n+2, n+2)."""
    n = profile.n
    x = np.asarray(a, dtype=float)[..., 1:-1]
    g = np.zeros(x.shape[:-1] + (n + 2, n + 2))
    g[..., 0, 0] = np.sum((x @ profile.S) * x, axis=-1)
    g[..., 0, -1] = g[..., -1, 0] = 1.0
    g[..., 1:-1, 1:-1] = np.eye(n)
    return g


def metric_at(profile: SymmetricProfile, point: Point) -> SymBilinear:
    """The form g_S at a point (see metric_gram)."""
    return SymBilinear(profile.n, metric_gram(profile, point.as_array()))


def inverse_metric_at(profile: SymmetricProfile, point: Point) -> np.ndarray:
    return np.linalg.inv(metric_gram(profile, point.as_array()))


def christoffel_at(profile: SymmetricProfile, point) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] = Gamma^k_{ij} of g_S at a
    Point or an (..., n+2) array of points.

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


def christoffel_finite_difference(profile: SymmetricProfile, point: Point,
                                  step: float = FD_STEP) -> np.ndarray:
    """Christoffel symbols from the Koszul formula with central-difference
    metric derivatives.  Independent oracle for christoffel_at."""
    # row k of p0 +- E is the point moved along coordinate k
    p0, E = point.as_array(), step * np.eye(profile.n + 2)
    dg = (metric_gram(profile, p0 + E) - metric_gram(profile, p0 - E)) / (2 * step)
    # dg[k, i, j] = d_k g_ij
    ginv = inverse_metric_at(profile, point)
    first = 0.5 * (np.einsum("jil->lij", dg) + np.einsum("ijl->lij", dg)
                   - np.einsum("lij->lij", dg))
    return np.einsum("kl,lij->kij", ginv, first)


def kulkarni_nomizu(A: SymBilinear, B: SymBilinear) -> CurvatureTensor4:
    """Kulkarni-Nomizu product of two symmetric bilinear forms."""
    if A.n != B.n:
        raise IncompatibleProfileError("Kulkarni-Nomizu needs matching dimension")
    a, b = A.components, B.components
    R = (np.einsum("xz,yv->xyzv", a, b) + np.einsum("xz,yv->xyzv", b, a)
         - np.einsum("xv,yz->xyzv", a, b) - np.einsum("xv,yz->xyzv", b, a))
    return CurvatureTensor4(A.n, R)


def riemann(profile: SymmetricProfile) -> CurvatureTensor4:
    """R = -S kn (dt)^2, constant over the space."""
    return CurvatureTensor4(profile.n, block=profile.S, sign=-1.0)


def ricci(profile: SymmetricProfile) -> SymBilinear:
    """Ric = -tr(S) (dt)^2."""
    return -float(np.trace(profile.S)) * dt_squared(profile.n)


def scalar(profile: SymmetricProfile) -> float:
    """Scalar curvature, identically zero."""
    return 0.0


def schouten(profile: SymmetricProfile) -> SymBilinear:
    """P = Ric/(m-2) since the scalar curvature vanishes."""
    return (1.0 / profile.n) * ricci(profile)


def weyl(profile: SymmetricProfile) -> CurvatureTensor4:
    """W = (tr(S)/n I - S) kn (dt)^2."""
    n = profile.n
    M = (np.trace(profile.S) / n) * np.eye(n) - profile.S
    return CurvatureTensor4(n, block=M)


def cotton(profile: SymmetricProfile, point: Point = None) -> np.ndarray:
    """Cotton tensor C_{ijk} = (nabla_i P)_{jk} - (nabla_j P)_{ik}.

    P is constant in coordinates and has only a tt-entry, while no
    Christoffel symbol has an upper t index, so C vanishes identically;
    the formula is still evaluated rather than short-circuited.
    """
    m = profile.n + 2
    if point is None:
        point = Point(0.3, 0.7 * np.ones(profile.n), -0.2)
    P = schouten(profile).components
    gamma = christoffel_at(profile, point)
    # coordinate derivative of the constant P is zero
    nablaP = -np.einsum("lij,lk->ijk", gamma, P) - np.einsum("lik,jl->ijk", gamma, P)
    C = nablaP - np.transpose(nablaP, (1, 0, 2))
    assert C.shape == (m, m, m)
    return C


def riemann_finite_difference(profile: SymmetricProfile, point: Point,
                              step: float = FD_STEP) -> CurvatureTensor4:
    """Brute-force (0,4) curvature from Christoffel symbols:
    R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im}G^m_{jk} - G^l_{jm}G^m_{ik},
    lowered so that components[i,j,k,l] = g(R(d_i, d_j) d_l, d_k)."""
    # row i of p0 +- E is the point moved along coordinate i
    p0, E = point.as_array(), step * np.eye(profile.n + 2)
    dgam = (christoffel_at(profile, p0 + E) - christoffel_at(profile, p0 - E)) / (2 * step)
    # dgam[i, l, j, k] = d_i Gamma^l_{jk}
    G = christoffel_at(profile, p0)
    Rup = (np.einsum("iljk->ijkl", dgam) - np.einsum("jlik->ijkl", dgam)
           + np.einsum("lim,mjk->ijkl", G, G) - np.einsum("ljm,mik->ijkl", G, G))
    # Rup[i, j, k, l] = (R(d_i, d_j) d_k)^l
    g = metric_at(profile, point).components
    low = np.einsum("ijlm,km->ijkl", Rup, g)
    return CurvatureTensor4(profile.n, low)


def nabla_df(profile: SymmetricProfile, point: Point, jet: ScalarJet2) -> SymBilinear:
    """Covariant Hessian: (nabla df)_{ij} = hess_{ij} - Gamma^k_{ij} df_k."""
    gamma = christoffel_at(profile, point)
    h = jet.hessian - np.einsum("kij,k->ij", gamma, jet.gradient)
    return SymBilinear(profile.n, h)


def conformal_change_at(profile: SymmetricProfile, point: Point, jet: ScalarJet2):
    """Curvature of g_hat = e^{2f} g_S at a point, from the 2-jet of f.

    Returns a dict with riemann_hat (the hatted (0,4) tensor itself,
    including the e^{2f} factor), ricci_hat, scal_hat, and the auxiliary
    form entering the transformation rule.
    """
    n = profile.n
    m = n + 2
    g = metric_at(profile, point)
    ginv = np.linalg.inv(g.components)
    if abs(np.linalg.det(g.components)) < 1e-14:
        raise ValueError("metric degenerate at the point")
    df = jet.gradient
    gradf = ginv @ df  # raised index
    norm2 = float(df @ gradf)
    hess = nabla_df(profile, point, jet)
    df2 = SymBilinear(n, np.outer(df, df))
    lap = float(np.einsum("ij,ij->", ginv, hess.components))

    # Laplacian convention: lap = tr_g(nabla df).  The hatted Ricci and
    # scalar below are the metric traces of riemann_hat, so the three
    # outputs are mutually consistent by construction.
    aux = hess - df2 + 0.5 * norm2 * g
    R_hat = np.exp(2 * jet.value) * (riemann(profile) - kulkarni_nomizu(g, aux))
    ric_hat = (ricci(profile) - (m - 2) * (hess - df2)
               - (lap + (m - 2) * norm2) * g)
    scal_hat = np.exp(-2 * jet.value) * (scalar(profile)
                                         - (m - 1) * (2 * lap + (m - 2) * norm2))
    return {
        "riemann_hat": R_hat,
        "ricci_hat": ric_hat,
        "scal_hat": scal_hat,
        "laplacian": lap,
        "grad_norm_sq": norm2,
    }


def conformal_christoffel_at(profile: SymmetricProfile, point: Point,
                             jet: ScalarJet2) -> np.ndarray:
    """Christoffel symbols of e^{2f} g_S:
    Ghat^k_{ij} = G^k_{ij} + delta^k_i df_j + delta^k_j df_i - g_ij (grad f)^k."""
    m = profile.n + 2
    g = metric_at(profile, point).components
    gradf = np.linalg.inv(g) @ jet.gradient
    gamma = christoffel_at(profile, point)
    eye = np.eye(m)
    gamma += (np.einsum("ki,j->kij", eye, jet.gradient)
              + np.einsum("kj,i->kij", eye, jet.gradient)
              - np.einsum("ij,k->kij", g, gradf))
    return gamma


def trace_with_metric(T: CurvatureTensor4, g: SymBilinear, slots=(0, 2)) -> np.ndarray:
    """Single trace of a (0,4) tensor over the given slot pair."""
    ginv = np.linalg.inv(g.components)
    R = T.components
    order = [a for a in range(4) if a not in slots]
    perm = list(slots) + order
    moved = np.transpose(R, perm)
    return np.einsum("ab,ab...->...", ginv, moved)
