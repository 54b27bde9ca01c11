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

An element built from outside has finite parameters, beta over its profile,
and A made orthogonal there, once: SymmetricProfile.require_centraliser
replaces an A past PARAM_TOL of orthogonal by its polar factor.  Products
and inverses are checked only for overflow, by one sum of their
parameters, and never re-project A: a float matrix product is backward
stable, so each drifts by at most about n eps.  Rows taken from a batch,
or elements stacked into one (`_stack`, which checks only that they share
one profile), were checked when they were made, and are not checked
again.  `compose`, `inverse`, `apply` and `differential` run
with numpy's overflow warnings off, so an overflow surfaces only as
OverflowingValueError; `differential` raises on a Jacobian entry past the
float range, as e^{2s}, its v-v entry, may be.  The zero rule, `_scaled`:
where e^{+-s} or e^{+-2s} overflows, a term whose unscaled factor (b,
beta's data, A x or v) is exactly 0 stays that zero, as in exact
arithmetic, instead of inf * 0 = NaN.  The row rule, `_row_by_row`: a
batched `compose` or `inverse` raises what its first failing row, in
np.ndindex order, raises alone.  Every A is in C order, as the gate, a
product and `inverse` leave it, so `compose`, which sums e^{s1} A1 beta2
in A1's memory order, reads A by its values alone.
`power` folds from the lowest factor of its repeated squaring, so phi^k,
k != 0, costs exactly floor(log2|k|) + popcount(|k|) - 1 products.

`apply` and `differential` act on an (..., n+2) array of points, one per
row, and return arrays.  They broadcast a batch of
elements against the leading axes of the points, its last axis 1 standing
for the rows: a (B, 1) batch at (N, n+2) points gives (B, N, n+2) images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce, wraps
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
from .errors import IncompatibleProfileError, OverflowingValueError, PreconditionError
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
        for name in ("b", "c", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # entries near the float maximum may overflow the gate's sum: an
        # error or a pass, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            _require_finite_params(self.b, beta.beta0, beta.beta1, self.c, self.s)

    @property
    def is_strict(self):
        """|s| > PARAM_TOL, per row of a batch."""
        return ~within(np.abs(self.s), PARAM_TOL)


def _element(profile, b, beta0, beta1, c, eps, A, s) -> Homothety:
    """A Homothety, or a batch of them, from parameters derived from valid
    elements.  It skips every check of the public constructors; a
    parameter that overflowed raises OverflowingValueError."""
    _require_finite_params(b, beta0, beta1, c, s)
    return _assemble(profile, b, beta0, beta1, c, eps, A, s)


def _assemble(profile, b, beta0, beta1, c, eps, A, s) -> Homothety:
    """A Homothety, or a batch, from parameters already checked: rows of
    valid elements."""
    beta = object.__new__(BetaSolution)
    beta.__dict__.update(profile=profile, beta0=beta0, beta1=beta1)
    phi = object.__new__(Homothety)
    phi.__dict__.update(profile=profile, b=b, beta=beta, c=c, eps=eps, A=A, s=s)
    return phi


def _require_finite_params(b, beta0, beta1, c, s) -> None:
    """OverflowingValueError if a parameter, or a row of a batch, is not
    finite.  A sum with a non-finite term is not finite, so one sum per row
    (and one over a batch's rows) passes a valid element; only a sum that
    is not finite, which finite terms can make by overflowing, is read
    term by term."""
    total = np.add.reduce(beta0 + beta1, axis=-1) + (b + c + s)
    if math.isfinite(total if total.ndim == 0 else np.add.reduce(total, axis=None)):
        return
    if not (np.isfinite((b, c, s)).all() and np.isfinite(beta0).all()
            and np.isfinite(beta1).all()):
        raise OverflowingValueError("group element has non-finite parameters")


def _params(phi: Homothety) -> tuple:
    """The parameters of an element or a batch, in _element's order."""
    return phi.b, phi.beta.beta0, phi.beta.beta1, phi.c, phi.eps, phi.A, phi.s


def _stack(elements: Sequence[Homothety]) -> Homothety:
    """The batch of shape (len(elements),) of the elements, in floats (eps
    too); IncompatibleProfileError if they are over different profiles."""
    prof = elements[0].profile
    if any(phi.profile is not prof and phi.profile != prof for phi in elements):
        raise IncompatibleProfileError("cannot stack elements over different profiles")
    return _assemble(prof, *map(partial(np.array, dtype=float), zip(*map(_params, elements))))


def _take(phi: Homothety, rows) -> Homothety:
    """The rows of a batch at an index (one element) or an index array."""
    return _assemble(phi.profile, *(x[rows] for x in _params(phi)))


def _with_inverses(elements: Sequence[Homothety]) -> Homothety:
    """The batch of shape (2m,) of m elements and their inverses, from one
    batched inverse, written into one new array per parameter (so every A
    is in C order): row 2i is element i and row 2i + 1 row i of that
    inverse, bit for bit.  An error is the one of the first element whose
    inverse fails, by the row rule of `inverse`."""
    batch = _stack(elements)
    params = [np.empty((2 * len(x),) + x.shape[1:]) for x in _params(batch)]
    for out, x, y in zip(params, _params(batch), _params(inverse(batch))):
        out[0::2], out[1::2] = x, y
    return _assemble(batch.profile, *params)


def _scaled(build, scales, factors, products):
    """build(*products), each product its scale times its factor however
    formed; if that overflows where a scale is inf, build again with each
    product 0 where its factor is 0, as in exact arithmetic, not inf * 0 = NaN."""
    try:
        return build(*products)
    except OverflowingValueError:
        inf = [np.isinf(scale) for scale in scales]
        if not any(mask.any() for mask in inf):
            raise
    return build(*(np.where(mask & (factor == 0), factor, product)
                   for mask, factor, product in zip(inf, factors, products)))


def _row_by_row(op):
    """op, raising on batches what op raises on their first failing row, in
    np.ndindex order of their broadcast shape; a single element, or a batch
    axis of length 1, stands for every index along the axis."""
    @wraps(op)
    def batched(*elements):
        try:
            return op(*elements)
        except (PreconditionError, OverflowingValueError):
            shapes = [np.shape(phi.c) for phi in elements]
            for index in np.ndindex(np.broadcast_shapes(*shapes)):
                op(*(_take(phi, tuple(np.mod(index[-len(shape):], shape))) if shape else phi
                     for phi, shape in zip(elements, shapes)))
            raise
    return batched


def _rowmat(x, M):
    """x M for rows x (..., N, n) and M (n, n), or a batch (..., 1, n, n) whose
    size-1 axis stands for the N rows: one product per element, of all its rows."""
    return x @ M.reshape(M.shape[:-3] + M.shape[-2:])


def identity(profile: SymmetricProfile) -> Homothety:
    return Homothety(profile)


@np.errstate(over="ignore", invalid="ignore")
def apply(phi: Homothety, p):
    """The images of p, an (..., n+2) array of points, as such an array;
    OverflowingValueError if an image point is not finite."""
    a = coords(p, phi.profile.n)
    t, x, v = a[..., 0], a[..., 1:-1], a[..., -1]
    val, der = beta_eval(phi.beta, t)
    es, e2s = np.exp(phi.s)[..., None], np.exp(2 * phi.s)
    Ax = _rowmat(x, phi.A.swapaxes(-1, -2))

    def image(esAx, e2sv):
        w = phi.eps * (e2sv + phi.b - np.sum(der * (esAx + 0.5 * val), axis=-1))
        return require_finite(join(phi.eps * t + phi.c, esAx + val, w))

    return _scaled(image, (es, e2s), (Ax, v), (es * Ax, e2s * v))


@np.errstate(over="ignore", invalid="ignore")
def differential(phi: Homothety, p) -> np.ndarray:
    """Analytic Jacobian of apply(phi, .) at p, an (..., n+2) array of
    points, in frame order (t, x, v): shape (..., n+2, n+2);
    OverflowingValueError if an entry is not finite."""
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
    if not np.isfinite(J).all():
        raise OverflowingValueError("the Jacobian has non-finite entries")
    return J


@_row_by_row
@np.errstate(over="ignore", invalid="ignore")
def compose(phi: Homothety, psi: Homothety) -> Homothety:
    """Group product: apply(compose(phi, psi), p) = apply(phi, apply(psi, p))."""
    if phi.profile is not psi.profile and phi.profile != psi.profile:
        raise IncompatibleProfileError("cannot compose over different profiles")
    # x-part of the composite: e^{s1+s2} A1 A2 x + e^{s1} A1 beta2(t) + beta1(eps2 t + c2)
    es1 = np.exp(phi.s)[..., None]
    es1A1 = es1[..., None] * phi.A
    X = np.matvec(es1A1, psi.beta.beta0)
    Xd = np.matvec(es1A1, psi.beta.beta1)
    del es1A1  # one (..., n, n) temporary at a time
    Y, Yd = beta_eval(phi.beta, psi.c)
    e2, e2s1 = psi.eps, np.exp(2 * phi.s)

    def product(X, Xd, e2s1b2):
        b = e2s1b2 + e2 * phi.b + 0.5 * (np.vecdot(Xd, Y) - e2 * np.vecdot(Yd, X))
        return _element(phi.profile, b, X + Y, Xd + np.asarray(e2)[..., None] * Yd,
                        phi.c + phi.eps * psi.c, phi.eps * e2, phi.A @ psi.A,
                        phi.s + psi.s)

    # A1 is orthogonal: A1 beta2 is exactly 0 only where beta2 is
    return _scaled(product, (es1, es1, e2s1), (psi.beta.beta0, psi.beta.beta1, psi.b),
                   (X, Xd, e2s1 * psi.b))


@_row_by_row
@np.errstate(over="ignore", invalid="ignore")
def inverse(phi: Homothety) -> Homothety:
    eps, c, s = phi.eps, phi.c, phi.s
    A_inv = phi.A.swapaxes(-1, -2).copy()  # in C order, as a product leaves A
    # x-part of the inverse: e^{-s} A^T (x - beta(eps^{-1}(t - c))) at time t,
    # i.e. beta_inv(t) = -e^{-s} A^T beta(eps t - eps c)
    val, der = beta_eval(phi.beta, -eps * c)
    ems = np.exp(-s)
    e2ms, ems1 = ems * ems, ems[..., None]
    Av, Ad = np.matvec(A_inv, val), np.matvec(A_inv, der)

    def element(e2msb, emsAv, emsAd):
        return _element(phi.profile, -eps * e2msb, -emsAv, np.asarray(-eps)[..., None] * emsAd,
                        -eps * c, eps, A_inv, -s)

    return _scaled(element, (e2ms, ems1, ems1), (phi.b, Av, Ad),
                   (e2ms * phi.b, ems1 * Av, ems1 * Ad))


def element_distance(phi: Homothety, psi: Homothety):
    """Max componentwise distance of the parameter tuples, per row of
    broadcast batches (a float for two single elements); infinite where
    the eps parts differ."""
    d = reduce(np.maximum, (np.abs(phi.b - psi.b),
                            np.abs(phi.beta.beta0 - psi.beta.beta0).max(axis=-1),
                            np.abs(phi.beta.beta1 - psi.beta.beta1).max(axis=-1),
                            np.abs(phi.c - psi.c),
                            np.abs(phi.A - psi.A).max(axis=(-2, -1)),
                            np.abs(phi.s - psi.s)))
    d = np.where(phi.eps == psi.eps, d, np.inf)
    return float(d) if d.ndim == 0 else d


def power(phi: Homothety, k: int) -> Homothety:
    """phi^k by repeated squaring, folded from its lowest factor: for
    k != 0 exactly floor(log2|k|) + popcount(|k|) - 1 products, the
    squarings and one per further set bit; phi^0 is the identity."""
    if k == 0:
        return identity(phi.profile)
    base, k = (phi if k > 0 else inverse(phi)), abs(k)
    while not k & 1:
        base, k = compose(base, base), k >> 1
    out, k = base, k >> 1
    while k:
        base = compose(base, base)
        if k & 1:
            out = compose(out, base)
        k >>= 1
    return out


def conjugate(g: Homothety, phi: Homothety) -> Homothety:
    """g phi g^{-1}."""
    return compose(g, compose(phi, inverse(g)))


def homothety_factor_check(phi: Homothety, points=None):
    """Max entrywise deviation |phi^* g - e^{2s} g| over sample points, an
    (N, n+2) array, one (n+2,) point or a list of Points (ten
    default_rng(0) draws by default), through the analytic Jacobian, by
    flat.conformal_defect: a float for one element, and per row, each by
    its own e^{2s}, for a (B, 1) batch."""
    prof = phi.profile
    if points is None:
        points = np.random.default_rng(0).normal(size=(10, prof.n + 2))
    g = partial(metric_at, prof)
    return conformal_defect(SmoothMap(prof.n, partial(apply, phi), partial(differential, phi)),
                            g, g, lambda a: np.exp(2 * phi.s), points)
