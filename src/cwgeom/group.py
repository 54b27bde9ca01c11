"""Arithmetic in the homothety group H_S = Hei_n x| (E(1) x C_O(n)(S) x R).

A group element is the map

    (t, x, v) |-> (eps t + c,
                   e^s A x + beta(t),
                   eps (e^{2s} v + b - <beta'(t), e^s A x + beta(t)/2>)),

with beta a solution of beta'' = S beta, A orthogonal and commuting with
S, eps = +-1.  Composition and inversion are computed at parameter level,
row by row over batches built internally (b, c, s and eps of shape (...),
beta's data (..., n) and A (..., n, n); one element is the batch of shape
()), the central parameter b in closed form: for a product phi psi, with
X = e^{s1} A1 beta2(0), X' = e^{s1} A1 beta2'(0) and (Y, Y') =
(beta1(c2), beta1'(c2)),

    b = e^{2 s1} b2 + eps2 b1 + (<X', Y> - eps2 <Y', X>) / 2,

and the inverse has b^{-1} = -eps e^{-2s} b.

A (and the profile of beta) is validated where an element is built from
outside; products, inverses and renormalised elements of valid elements
are checked only for overflow.

`apply` and `differential` act on an (..., n+2) array of points, one per
row, and return arrays.  They broadcast a batch of
elements against the leading axes of the points, its last axis 1 standing
for the rows: a (B, 1) batch at (N, n+2) points gives (B, N, n+2) images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import (
    PARAM_TOL,
    BetaSolution,
    SymmetricProfile,
    beta_eval,
    coords,
    join,
    require_finite,
    within,
)
from .curvature import metric_at
from .errors import IncompatibleProfileError, OverflowingValueError
from .flat import SmoothMap, conformal_defect


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
    def is_strict(self):
        """|s| > PARAM_TOL, per row of a batch."""
        return ~within(np.abs(self.s), PARAM_TOL)

    def renormalized(self) -> "Homothety":
        """Project A back to the orthogonal group (polar decomposition) in
        the rows where numerical drift has accumulated."""
        drift = self.A.swapaxes(-1, -2) @ self.A
        # minus the identity: the diagonal of each n x n block of the fresh product
        drift.reshape(drift.shape[:-2] + (-1,))[..., :: self.profile.n + 1] -= 1.0
        if np.abs(drift, out=drift).max() <= PARAM_TOL:
            return self
        drifted = drift.max(axis=(-2, -1)) > PARAM_TOL
        A = self.A.copy()
        U, _, Vt = np.linalg.svd(A[drifted])
        A[drifted] = U @ Vt
        return _element(self.profile, *_params(self)[:5], A, self.s)


def _element(profile, b, beta0, beta1, c, eps, A, s) -> Homothety:
    """A Homothety, or a batch of them, from parameters derived from valid
    elements.  It skips every check of the public constructors; a
    parameter that overflowed raises OverflowingValueError."""
    if not (np.isfinite((b, c, s)).all() and np.isfinite(beta0).all()
            and np.isfinite(beta1).all()):
        raise OverflowingValueError("group element has non-finite parameters")
    beta = object.__new__(BetaSolution)
    beta.__dict__.update(profile=profile, beta0=beta0, beta1=beta1)
    phi = object.__new__(Homothety)
    phi.__dict__.update(profile=profile, b=b, beta=beta, c=c, eps=eps, A=A, s=s)
    return phi


def _params(phi: Homothety) -> tuple:
    """The parameters of an element or a batch, in _element's order."""
    return phi.b, phi.beta.beta0, phi.beta.beta1, phi.c, phi.eps, phi.A, phi.s


def _stack(elements: Sequence[Homothety]) -> Homothety:
    """The batch of shape (len(elements),) of the elements, in floats (eps too)."""
    return _element(elements[0].profile, *map(partial(np.array, dtype=float),
                                              zip(*map(_params, elements))))


def _take(phi: Homothety, rows) -> Homothety:
    """The rows of a batch at an index (one element) or an index array."""
    return _element(phi.profile, *(x[rows] for x in _params(phi)))


def _matvec(M, x):
    """M x over leading batch axes: per row the kernel of a single product."""
    return (M @ x[..., None])[..., 0]


def _dot(x, y):
    """<x, y> over leading batch axes: per row the kernel of a single dot."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def _rowmat(x, M):
    """x M for rows x (..., N, n) and M (n, n), or a batch (..., 1, n, n) whose
    size-1 axis stands for the N rows: one product per element, of all its rows."""
    return x @ M.reshape(M.shape[:-3] + M.shape[-2:])


def identity(profile: SymmetricProfile) -> Homothety:
    return Homothety(profile)


def apply(phi: Homothety, p):
    """The images of p, an (..., n+2) array of points, as such an array;
    OverflowingValueError if an image point is not finite."""
    a = coords(p, phi.profile.n)
    t, x, v = a[..., 0], a[..., 1:-1], a[..., -1]
    val, der = beta_eval(phi.beta, t)
    esAx = np.exp(phi.s)[..., None] * _rowmat(x, phi.A.swapaxes(-1, -2))
    w = phi.eps * (np.exp(2 * phi.s) * v + phi.b
                   - np.sum(der * (esAx + 0.5 * val), axis=-1))
    return require_finite(join(phi.eps * t + phi.c, esAx + val, w))


def differential(phi: Homothety, p) -> np.ndarray:
    """Analytic Jacobian of apply(phi, .) at p, an (..., n+2) array of
    points, in frame order (t, x, v): shape (..., n+2, n+2)."""
    prof = phi.profile
    a = coords(p, prof.n)
    t, x = a[..., 0], a[..., 1:-1]
    val, der = beta_eval(phi.beta, t)
    dder = val @ prof.S  # beta''(t)
    es = np.exp(phi.s)
    esAx = es[..., None] * _rowmat(x, phi.A.swapaxes(-1, -2))
    J = np.zeros(val.shape[:-1] + (prof.n + 2, prof.n + 2))
    J[..., 0, 0] = phi.eps
    J[..., 1:-1, 0] = der
    J[..., 1:-1, 1:-1] = es[..., None, None] * phi.A
    J[..., -1, 0] = -phi.eps * (np.sum(dder * (esAx + 0.5 * val), axis=-1)
                                + 0.5 * np.sum(der * der, axis=-1))
    J[..., -1, 1:-1] = (-phi.eps * es)[..., None] * _rowmat(der, phi.A)
    J[..., -1, -1] = phi.eps * np.exp(2 * phi.s)
    return J


def compose(phi: Homothety, psi: Homothety) -> Homothety:
    """Group product: apply(compose(phi, psi), p) = apply(phi, apply(psi, p))."""
    if phi.profile != psi.profile:
        raise IncompatibleProfileError("cannot compose over different profiles")
    # x-part of the composite: e^{s1+s2} A1 A2 x + e^{s1} A1 beta2(t) + beta1(eps2 t + c2)
    es1A1 = np.exp(phi.s)[..., None, None] * phi.A
    X = _matvec(es1A1, psi.beta.beta0)
    Xd = _matvec(es1A1, psi.beta.beta1)
    del es1A1  # one (..., n, n) temporary at a time
    Y, Yd = beta_eval(phi.beta, psi.c)
    e2 = psi.eps
    b = (np.exp(2 * phi.s) * psi.b + e2 * phi.b
         + 0.5 * (_dot(Xd, Y) - e2 * _dot(Yd, X)))
    return _element(phi.profile, b, X + Y, Xd + np.asarray(e2)[..., None] * Yd,
                    phi.c + phi.eps * psi.c, phi.eps * e2, phi.A @ psi.A,
                    phi.s + psi.s).renormalized()


def inverse(phi: Homothety) -> Homothety:
    eps, c, s = phi.eps, phi.c, phi.s
    A_inv = phi.A.swapaxes(-1, -2)
    # x-part of the inverse: e^{-s} A^T (x - beta(eps^{-1}(t - c))) at time t,
    # i.e. beta_inv(t) = -e^{-s} A^T beta(eps t - eps c)
    val, der = beta_eval(phi.beta, -eps * c)
    ems = np.exp(-s)
    return _element(phi.profile, -eps * ems * ems * phi.b, -ems[..., None] * _matvec(A_inv, val),
                    (-ems * eps)[..., None] * _matvec(A_inv, der), -eps * c, eps, A_inv, -s)


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
    return out


def conjugate(g: Homothety, phi: Homothety) -> Homothety:
    """g phi g^{-1}."""
    return compose(g, compose(phi, inverse(g)))


def homothety_factor_check(phi: Homothety, points=None, rng=None) -> float:
    """Max entrywise deviation |phi^* g - e^{2s} g| over sample points, an
    (N, n+2) array or a list of Points (ten random ones by default),
    through the analytic Jacobian of the action."""
    prof = phi.profile
    if points is None:
        rng = np.random.default_rng(0) if rng is None else rng
        points = rng.normal(size=(10, prof.n + 2))
    action = SmoothMap(prof.n, partial(apply, phi), partial(differential, phi))
    gram = partial(metric_at, prof)
    return conformal_defect(action, gram, gram, lambda a: np.exp(2 * phi.s), points)
